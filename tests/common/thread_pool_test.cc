/** @file ThreadPool / parallelFor unit tests. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace sp::common
{
namespace
{

TEST(ThreadPool, ClampsToAtLeastOneWorker)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                           size_t{64}, size_t{1000}}) {
        std::vector<std::atomic<int>> hits(n);
        pool.parallelFor(n, [&hits](size_t i) { ++hits[i]; });
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
}

TEST(ThreadPool, ParallelForIsDeterministicByIndex)
{
    // Writing slot i from call i gives serial-identical results no
    // matter how indices interleave -- the contract every parallel
    // site in the simulator relies on.
    ThreadPool pool(8);
    std::vector<uint64_t> out(5000);
    pool.parallelFor(out.size(),
                     [&out](size_t i) { out[i] = i * i + 1; });
    for (size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], i * i + 1);
}

TEST(ThreadPool, ParallelForRethrowsFirstError)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [](size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("bad");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    // A parallelFor issued from inside a pool task must complete even
    // when every worker is busy: the inner caller participates in its
    // own loop.
    ThreadPool pool(2);
    std::atomic<int> total{0};
    pool.parallelFor(8, [&pool, &total](size_t) {
        pool.parallelFor(8, [&total](size_t) { ++total; });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, SingleWorkerRunsInline)
{
    ThreadPool pool(1);
    std::vector<int> order;
    pool.parallelFor(5, [&order](size_t i) {
        order.push_back(static_cast<int>(i));
    });
    // Width-1 pools run parallelFor serially on the caller, in order.
    const std::vector<int> expected = {0, 1, 2, 3, 4};
    EXPECT_EQ(order, expected);
}

TEST(ThreadPool, GlobalPoolIsUsableAndSized)
{
    ThreadPool &pool = ThreadPool::global();
    EXPECT_GE(pool.size(), 1u);
    std::atomic<int> counter{0};
    parallelFor(32, [&counter](size_t) { ++counter; });
    EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, DefaultThreadsPositive)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
}

/** Sets SP_JOBS for one scope and restores the caller's value (CI
 *  runs some suites with SP_JOBS set). */
class ScopedJobsEnv
{
  public:
    explicit ScopedJobsEnv(const char *value)
    {
        if (const char *old = std::getenv("SP_JOBS"))
            old_ = old;
        ::setenv("SP_JOBS", value, 1);
    }
    ~ScopedJobsEnv()
    {
        if (old_)
            ::setenv("SP_JOBS", old_->c_str(), 1);
        else
            ::unsetenv("SP_JOBS");
    }

  private:
    std::optional<std::string> old_;
};

TEST(ThreadPool, DefaultThreadsReadsSpJobsLikeJobs)
{
    // defaultThreads() only returns a count; no pool is built here.
    const size_t every_core = [] {
        ScopedJobsEnv env("0");
        return ThreadPool::defaultThreads();
    }();
    EXPECT_GE(every_core, 1u);
    for (const auto &[text, expected] :
         {std::pair<const char *, size_t>{"1", 1}, {"8", 8},
          {"0008", 8}, {"4096", 4096}, {"0", every_core}}) {
        ScopedJobsEnv env(text);
        EXPECT_EQ(ThreadPool::defaultThreads(), expected) << text;
    }
}

TEST(ThreadPool, DefaultThreadsRejectsMalformedSpJobs)
{
    for (const char *text :
         {"8x", "5000", "4097", "-3", "abc", "", " 4", "+4", "0x10",
          "99999999999999999999"}) {
        ScopedJobsEnv env(text);
        try {
            (void)ThreadPool::defaultThreads();
            ADD_FAILURE() << "SP_JOBS='" << text << "' was accepted";
        } catch (const FatalError &e) {
            const std::string message = e.what();
            EXPECT_NE(message.find("SP_JOBS"), std::string::npos)
                << message;
            EXPECT_NE(message.find(std::string("'") + text + "'"),
                      std::string::npos)
                << message;
        }
    }
}

} // namespace
} // namespace sp::common
