/**
 * @file
 * Frozen "before" rows of the retired path-level reference flows.
 *
 * The frontend and the backend used to carry whole pre-overhaul flows
 * behind config switches, and six benches re-ran them for their
 * "before" columns. Those flows are gone. Their numbers were measured
 * at the last commit that had them, several trials per row, and
 * checked in as BENCH_reference.json at the repository root; the
 * benches print those rows beside their live "after" numbers, each
 * labelled with the commit it was measured at. A frozen value is never
 * divided by a live one: every frozen ratio comes from the trial that
 * produced its numerator and denominator.
 */
#pragma once

#include <string>

namespace edx {
namespace bench {

/** One frozen row: median, min and max over its trials. */
struct FrozenRow
{
    double median = 0.0;
    double min = 0.0;
    double max = 0.0;
    int trials = 0;
    int frames = 0;     //!< frame (or iteration) count of the bench run
    std::string commit; //!< commit the row was measured at
};

/**
 * Row @p id ("<bench>/<row>") of BENCH_reference.json. The only code
 * that knows the file's layout. Exits the process with status 1,
 * naming the row, when the file or the row is missing.
 */
FrozenRow frozenRow(const std::string &id);

/**
 * A frozen row as one table cell: "median<unit> [min..max] @commit".
 */
std::string frozenCell(const FrozenRow &row, int decimals = 2,
                       const std::string &unit = "");

/**
 * One note line on where a bench's frozen rows come from: trials,
 * commit and the bench's frame count in those runs.
 */
std::string frozenNote(const FrozenRow &row);

} // namespace bench
} // namespace edx
