#include "common/reference.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/table.hpp"

namespace edx {
namespace bench {

FrozenRow
frozenRow(const std::string &id)
{
    // Layout (one entry per line):
    //   "commit": "<sha>",
    //   "<bench>/<row>": {"frames": N, "median": X, "min": X,
    //                     "max": X, "trials": [X, ...]},
    std::ifstream in(EDX_BENCH_REFERENCE_JSON);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    auto lineOf = [&](const std::string &key) -> std::string {
        const size_t at = text.find("\"" + key + "\": ");
        if (at == std::string::npos)
            return {};
        const size_t end = text.find('\n', at);
        return text.substr(at, end == std::string::npos ? end : end - at);
    };
    auto number = [](const std::string &line, const std::string &field,
                     double &out) {
        const size_t at = line.find("\"" + field + "\": ");
        if (at == std::string::npos)
            return false;
        out = std::atof(line.c_str() + at + field.size() + 4);
        return true;
    };

    FrozenRow row;
    const std::string line = lineOf(id);
    const std::string commit = lineOf("commit");
    const size_t sha = std::string("\"commit\": \"").size();
    double frames = 0.0;
    const size_t list = line.find("\"trials\": [");
    if (!number(line, "median", row.median) ||
        !number(line, "min", row.min) || !number(line, "max", row.max) ||
        list == std::string::npos || !number(line, "frames", frames) ||
        commit.find('"', sha) == std::string::npos) {
        std::cerr << EDX_BENCH_REFERENCE_JSON << ": no frozen row \"" << id
                  << "\"\n";
        std::exit(1);
    }
    row.trials = 1;
    for (size_t i = list; i < line.size() && line[i] != ']'; ++i)
        row.trials += line[i] == ',';
    row.frames = static_cast<int>(frames);
    row.commit = commit.substr(sha, commit.find('"', sha) - sha);
    return row;
}

std::string
frozenCell(const FrozenRow &row, int decimals, const std::string &unit)
{
    return fmt(row.median, decimals) + unit + " [" +
           fmt(row.min, decimals) + ".." + fmt(row.max, decimals) +
           "] @" + row.commit;
}

std::string
frozenNote(const FrozenRow &row)
{
    return "frozen rows: median [min..max] of " +
           std::to_string(row.trials) + " trials at " + row.commit +
           " (the retired reference flows), " + std::to_string(row.frames) +
           " frames per run";
}

} // namespace bench
} // namespace edx
