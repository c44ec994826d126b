/**
 * @file
 * parse -> summary() -> parse fixed-point tests for the option-list
 * grammars.
 *
 * Every key of every registered system is drawn from a per-key sample
 * list in seeded random subsets and orders; summary() must print each
 * given key with the value it was given, and parsing the summary must
 * print the same summary again. A key added to the system table
 * without samples here fails the test. Valid workload configs get the
 * same treatment through WorkloadSpec.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "data/workload.h"
#include "sys/registry.h"

namespace sp::sys
{
namespace
{

/** Canonical (summary-form) sample values for every system key. */
const std::map<std::string, std::vector<std::string>> kSamples = {
    {"cache", {"0.05", "1", "0.3333333333333333", "1e-05"}},
    {"policy", {"LRU", "LFU", "FIFO", "Random"}},
    {"past", {"0", "3", "7"}},
    {"future", {"0", "2", "5"}},
    {"warm", {"0", "1"}},
    {"bound", {"0", "1"}},
    {"arrival", {"poisson", "uniform", "bursty"}},
    {"rate", {"1e+06", "250000.5", "0.001"}},
    {"batch_max", {"1", "32", "4096"}},
    {"budget_us", {"0", "200", "12.75"}},
    {"refresh", {"static", "LRU", "LFU", "FIFO", "Random"}},
    {"burst_x", {"8", "1.5"}},
    {"burst_on_us", {"500", "0.25"}},
    {"burst_off_us", {"4500", "1e+20"}},
};

TEST(SpecRoundTrip, EverySystemKeyIsAFixedPoint)
{
    for (const std::string &key : SystemSpec::keys(
             {OptionSet::Cache, OptionSet::Scratchpad, OptionSet::Serve}))
        ASSERT_TRUE(kSamples.contains(key))
            << "add sample values for the new key '" << key << "'";

    std::mt19937_64 rng(20220618);
    for (const std::string &name : Registry::names()) {
        const std::vector<std::string> keys =
            SystemSpec::keys(Registry::entry(name).options);
        for (int round = 0; round < 64; ++round) {
            // A random non-empty subset (all keys on round 0), in a
            // random order.
            std::vector<std::string> given;
            for (const std::string &key : keys)
                if (round == 0 || rng() % 2 == 0)
                    given.push_back(key);
            std::shuffle(given.begin(), given.end(), rng);

            std::map<std::string, std::string> values;
            std::string text = name;
            for (const std::string &key : given) {
                const auto &samples = kSamples.at(key);
                values[key] = samples[rng() % samples.size()];
                text += (values.size() == 1 ? ":" : ",") + key + "=" +
                        values[key];
            }
            SCOPED_TRACE(text);

            const std::string summary = SystemSpec::parse(text).summary();
            // ",key=value,...," so each item matches whole.
            std::string items = summary + ",";
            items.replace(0, name.size() + 1, ",");
            for (const auto &[key, value] : values)
                EXPECT_NE(items.find("," + key + "=" + value + ","),
                          std::string::npos)
                    << key;
            EXPECT_EQ(summary, SystemSpec::parse(summary).summary());
            SystemSpec::parse(summary).validate();
        }
    }
}

TEST(SpecRoundTrip, ValidWorkloadsAreAFixedPoint)
{
    constexpr uint64_t kRows = 100000;
    std::mt19937_64 rng(8);
    const auto pick = [&rng](std::vector<std::string> samples) {
        return samples[rng() % samples.size()];
    };
    for (int round = 0; round < 256; ++round) {
        std::vector<std::string> items;
        if (rng() % 2 == 0) {
            items.push_back("drift_amp=" +
                            pick({"0.1", "1.5", "0.3333333333333333"}));
            items.push_back("drift_period=" + pick({"1", "8", "100"}));
        }
        if (rng() % 2 == 0) {
            items.push_back("churn_k=" + pick({"1", "64", "100000"}));
            items.push_back("churn_period=" + pick({"1", "32"}));
        }
        if (rng() % 2 == 0) {
            const std::string period = pick({"4", "16"});
            items.push_back("burst_frac=" +
                            pick({"0.1", "1", "0.3333333333333333"}));
            items.push_back("burst_period=" + period);
            items.push_back("burst_len=" + pick({"1", period}));
            items.push_back("burst_ranks=" + pick({"1", "512"}));
        }
        if (rng() % 2 == 0)
            items.push_back("phase=" + pick({"1", "3"}));
        std::shuffle(items.begin(), items.end(), rng);
        std::string text;
        for (const std::string &item : items)
            text += (text.empty() ? "" : ",") + item;
        SCOPED_TRACE(text);

        const data::WorkloadSpec spec = data::WorkloadSpec::parse(text);
        EXPECT_EQ(spec.config.validationError(kRows), "");
        const std::string summary = spec.summary();
        for (const std::string &item : items)
            EXPECT_NE(("," + summary + ",").find("," + item + ","),
                      std::string::npos)
                << item;
        const data::WorkloadSpec again = data::WorkloadSpec::parse(summary);
        EXPECT_EQ(again.config, spec.config);
        EXPECT_EQ(again.summary(), summary);
    }
    const data::WorkloadSpec replay =
        data::WorkloadSpec::parse("replay=runs/night shift.sptrace");
    EXPECT_EQ(data::WorkloadSpec::parse(replay.summary()).replay_path,
              "runs/night shift.sptrace");
}

} // namespace
} // namespace sp::sys
