/**
 * @file
 * Minimal command-line argument parsing for the tools and examples.
 *
 * Supports `--flag value` and `--flag=value` forms plus boolean
 * switches, with typed accessors, defaults, and an auto-generated
 * usage string. Unknown flags are fatal (catching typos beats
 * silently ignoring them in an experiment driver).
 */

#ifndef SP_COMMON_ARGS_H
#define SP_COMMON_ARGS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sp
{

/** Declarative flag registry + parser. */
class ArgParser
{
  public:
    explicit ArgParser(std::string program_description);

    /** Register a string flag with a default. */
    void addString(const std::string &name, const std::string &fallback,
                   const std::string &help);
    /** Register an integer flag with a default. */
    void addInt(const std::string &name, int64_t fallback,
                const std::string &help);
    /** Register a floating-point flag with a default. */
    void addDouble(const std::string &name, double fallback,
                   const std::string &help);
    /** Register a boolean switch (false unless given). */
    void addBool(const std::string &name, const std::string &help);

    /**
     * Parse argv. fatal() on unknown flags, missing values or
     * malformed numbers: integers take decimal digits only (no sign),
     * doubles a finite decimal. Returns false (after printing usage)
     * when --help was requested.
     */
    bool parse(int argc, const char *const *argv);

    std::string getString(const std::string &name) const;
    int64_t getInt(const std::string &name) const;
    double getDouble(const std::string &name) const;
    bool getBool(const std::string &name) const;

    /** True when the flag was given on the command line (as opposed
     *  to holding its default). */
    bool wasSet(const std::string &name) const;

    /** Human-readable usage text. */
    std::string usage() const;

  private:
    enum class Kind
    {
        String,
        Int,
        Double,
        Bool,
    };
    struct Flag
    {
        Kind kind;
        std::string fallback;
        std::string value;
        std::string help;
        bool set = false;
    };

    const Flag &flagOrDie(const std::string &name, Kind kind) const;

    std::string description_;
    std::string program_ = "program";
    std::map<std::string, Flag> flags_;
};

/** Upper bound accepted for --jobs-style pool widths. */
inline constexpr int64_t kMaxJobs = 4096;

/**
 * Validated accessor for a --jobs-style integer flag: the value must
 * lie in [0, kMaxJobs] (0 = all cores; parse() already rejects
 * negatives). fatal() with a usage hint on absurd widths, which would
 * otherwise request a many-terathread pool. Every driver's --jobs goes
 * through here so the bound is enforced in exactly one place.
 */
uint32_t parseJobsArg(const ArgParser &args,
                      const std::string &name = "jobs");

} // namespace sp

#endif // SP_COMMON_ARGS_H
