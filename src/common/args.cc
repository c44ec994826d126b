#include "common/args.h"

#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/logging.h"
#include "common/spec_number.h"

namespace sp
{

ArgParser::ArgParser(std::string program_description)
    : description_(std::move(program_description))
{
}

void
ArgParser::addString(const std::string &name, const std::string &fallback,
                     const std::string &help)
{
    flags_[name] = Flag{Kind::String, fallback, fallback, help, false};
}

void
ArgParser::addInt(const std::string &name, int64_t fallback,
                  const std::string &help)
{
    flags_[name] = Flag{Kind::Int, std::to_string(fallback),
                        std::to_string(fallback), help, false};
}

void
ArgParser::addDouble(const std::string &name, double fallback,
                     const std::string &help)
{
    std::ostringstream os;
    os << fallback;
    flags_[name] = Flag{Kind::Double, os.str(), os.str(), help, false};
}

void
ArgParser::addBool(const std::string &name, const std::string &help)
{
    flags_[name] = Flag{Kind::Bool, "false", "false", help, false};
}

bool
ArgParser::parse(int argc, const char *const *argv)
{
    if (argc > 0)
        program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string token = argv[i];
        if (token == "--help" || token == "-h")
            return false;
        fatalIf(token.rfind("--", 0) != 0, "unexpected argument '", token,
                "' (flags start with --)");
        token = token.substr(2);

        std::string value;
        bool has_value = false;
        const size_t eq = token.find('=');
        if (eq != std::string::npos) {
            value = token.substr(eq + 1);
            token = token.substr(0, eq);
            has_value = true;
        }

        auto it = flags_.find(token);
        fatalIf(it == flags_.end(), "unknown flag --", token, "\n",
                usage());
        Flag &flag = it->second;

        if (flag.kind == Kind::Bool) {
            flag.value = has_value ? value : "true";
        } else {
            if (!has_value) {
                fatalIf(i + 1 >= argc, "flag --", token,
                        " expects a value");
                value = argv[++i];
            }
            // The option grammar's reader (spec_number.h): digits only
            // for integers, so a negative count never wraps when a
            // driver casts it to unsigned; finite decimals for doubles.
            if (flag.kind == Kind::Int) {
                uint64_t parsed = 0;
                common::OptionValue(parsed).read("command line",
                                                 "--" + token, value);
                fatalIf(parsed > std::numeric_limits<int64_t>::max(),
                        "flag --", token, " value '", value,
                        "' overflows a 64-bit int");
            } else if (flag.kind == Kind::Double) {
                double parsed = 0.0;
                common::OptionValue(parsed).read("command line",
                                                 "--" + token, value);
            }
            flag.value = value;
        }
        flag.set = true;
    }
    return true;
}

const ArgParser::Flag &
ArgParser::flagOrDie(const std::string &name, Kind kind) const
{
    auto it = flags_.find(name);
    panicIf(it == flags_.end(), "flag --", name, " was never registered");
    panicIf(it->second.kind != kind, "flag --", name,
            " accessed with the wrong type");
    return it->second;
}

std::string
ArgParser::getString(const std::string &name) const
{
    return flagOrDie(name, Kind::String).value;
}

int64_t
ArgParser::getInt(const std::string &name) const
{
    return std::strtoll(flagOrDie(name, Kind::Int).value.c_str(), nullptr,
                        10);
}

double
ArgParser::getDouble(const std::string &name) const
{
    return std::strtod(flagOrDie(name, Kind::Double).value.c_str(),
                       nullptr);
}

bool
ArgParser::getBool(const std::string &name) const
{
    const std::string &value = flagOrDie(name, Kind::Bool).value;
    return value == "true" || value == "1" || value == "yes";
}

bool
ArgParser::wasSet(const std::string &name) const
{
    auto it = flags_.find(name);
    panicIf(it == flags_.end(), "flag --", name, " was never registered");
    return it->second.set;
}

uint32_t
parseJobsArg(const ArgParser &args, const std::string &name)
{
    const int64_t jobs = args.getInt(name);
    fatalIf(jobs > kMaxJobs, "--", name, " must be <= ", kMaxJobs,
            ", got ", jobs);
    return static_cast<uint32_t>(jobs);
}

std::string
ArgParser::usage() const
{
    std::ostringstream os;
    os << description_ << "\n\nusage: " << program_ << " [flags]\n";
    for (const auto &[name, flag] : flags_) {
        os << "  --" << name;
        if (flag.kind != Kind::Bool)
            os << " <" << flag.fallback << ">";
        os << "  " << flag.help << "\n";
    }
    return os.str();
}

} // namespace sp
