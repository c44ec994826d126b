/**
 * @file
 * The number grammar shared by the system specs
 * ("static:cache=0.05") and the workload specs ("drift_amp=0.2").
 *
 * A spec number is the whole value string in fixed or scientific
 * decimal notation with an optional leading '-'. Leading blanks, '+',
 * hex and inf/nan are rejected for every key, so range checks only
 * ever see finite values. shortestDouble() prints the form a summary
 * uses, and parseSpecDouble() reads it back to the same double.
 */

#ifndef SP_COMMON_SPEC_NUMBER_H
#define SP_COMMON_SPEC_NUMBER_H

#include <string>

namespace sp::common
{

/**
 * Parse `value` as a spec number; fatal()s with
 * "<grammar>: bad number '<value>' for key '<key>'" otherwise.
 */
double parseSpecDouble(const char *grammar, const std::string &key,
                       const std::string &value);

/** Shortest representation that parseSpecDouble() round-trips. */
std::string shortestDouble(double value);

} // namespace sp::common

#endif // SP_COMMON_SPEC_NUMBER_H
