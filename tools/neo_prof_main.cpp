/**
 * neo-prof — modeled-GPU roofline profiler CLI.
 *
 *   neo-prof <workload> [--engine E] [--level N] [--repeat N]
 *            [--fuse on|off] [--graph on|off]
 *            [--devices N] [--topology nvlink|pcie] [--json PATH]
 *   neo-prof --tune [--json PATH]
 *   neo-prof --diff BASE.json CUR.json [--threshold F] [--gate-wall]
 *            [--json PATH]
 *   neo-prof --list
 *
 * Runs one named workload under the chosen execution policy, prints
 * the per-kernel roofline attribution report and optionally writes
 * the schema-versioned artifact (BENCH_<workload>.json by
 * convention). `--engine auto` dispatches each kernel site through
 * the canonical tuning table, tuned in memory; `--tune` writes that
 * table as `neo.tune/1` and exits; `--diff` compares two neo.bench/1
 * artifacts, attributing the delta per kernel / span / metric and
 * applying the regression gate.
 *
 * Exit codes: 0 ok, 1 at least one metric regressed past the
 * threshold (--diff), 2 usage / runtime error — so CI can gate on the
 * result.
 */
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "gpusim/topology.h"
#include "neo/engine.h"
#include "prof/prof.h"

namespace {

int
usage(const char *argv0)
{
    const std::string engines = neo::EngineRegistry::help_list() +
                                " | auto";
    std::fprintf(
        stderr,
        "usage: %s <workload> [options]\n"
        "       %s --tune [--json PATH]\n"
        "       %s --diff BASE.json CUR.json [--threshold F]"
        " [--gate-wall] [--json PATH]\n"
        "       %s --list\n"
        "options:\n"
        "  --engine E      GEMM engine: %s\n"
        "                  (default fp64_tcu; auto = per-site tuned)\n"
        "  --level N       ciphertext level (primitive workloads;"
        " default: top)\n"
        "  --repeat N      functional workloads: warmup once, report"
        " the median\n"
        "                  wall time of N steady-state runs (default"
        " 1 = cold run)\n"
        "  --fuse on|off   element-wise kernel fusion (default on;"
        " library\n"
        "                  default is off — the CLI ships the tuned"
        " pipeline)\n"
        "  --graph on|off  CUDA-graph capture/replay model (default"
        " on)\n"
        "  --devices N     shard the keyswitch over N modeled devices"
        " (default 1;\n"
        "                  keyswitch workload only; execution stays"
        " bit-identical,\n"
        "                  the cost model prices compute + collectives)\n"
        "  --topology T    interconnect preset with --devices >= 2:"
        " nvlink\n"
        "                  (default) or pcie\n"
        "  --tune          write the canonical neo.tune/1 table to"
        " --json PATH\n"
        "                  (default neo.tune.json) and exit\n"
        "  --json PATH     write the neo.bench/1 artifact to PATH\n"
        "  --threshold F   --diff: relative regression threshold"
        " (default 0.10)\n"
        "  --gate-wall     --diff: also gate machine-dependent"
        " wall-clock metrics\n"
        "  --diff B C      compare artifacts B (baseline) and C:"
        " per-kernel\n"
        "                  delta attribution + regression gate; with"
        " --json,\n"
        "                  write the neo.diff/1 report; exit 1 if"
        " gated\n",
        argv0, argv0, argv0, argv0, engines.c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, engine = "fp64_tcu", json_path;
    std::string diff_base, diff_cur;
    bool tune_mode = false, diff_mode = false;
    size_t devices = 1;
    bool topology_set = false;
    size_t level = 0;
    size_t repeat = 1;
    neo::prof::CompareOptions copts;
    // The CLI profiles the shipped configuration: fusion and graph
    // capture on. The library defaults stay off so programmatic
    // profile() calls reproduce the historical artifact.
    neo::ExecPolicy policy;
    policy.fuse = true;
    policy.graph = true;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires an argument\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        auto on_off = [&](const char *flag) -> bool {
            const std::string v = next(flag);
            if (v == "on")
                return true;
            if (v == "off")
                return false;
            std::fprintf(stderr, "%s takes on|off, got '%s'\n", flag,
                         v.c_str());
            std::exit(2);
        };
        // A whole decimal number of at least `min`; anything else
        // exits 2 naming the flag.
        auto integer = [&](const char *flag, long long min) -> size_t {
            const char *v = next(flag);
            char *end = nullptr;
            errno = 0;
            const long long n = std::strtoll(v, &end, 10);
            if (end == v || *end != '\0' || errno == ERANGE || n < min) {
                std::fprintf(stderr, "%s takes a %s integer, got '%s'\n",
                             flag, min > 0 ? "positive" : "non-negative",
                             v);
                std::exit(2);
            }
            return static_cast<size_t>(n);
        };
        if (a == "--list") {
            for (const auto &n : neo::prof::workload_names())
                std::printf("%s\n", n.c_str());
            return 0;
        } else if (a == "--engine") {
            engine = next("--engine");
        } else if (a == "--level") {
            level = integer("--level", 0);
        } else if (a == "--repeat") {
            repeat = integer("--repeat", 1);
        } else if (a == "--fuse") {
            policy.fuse = on_off("--fuse");
        } else if (a == "--graph") {
            policy.graph = on_off("--graph");
        } else if (a == "--devices") {
            devices = integer("--devices", 1);
        } else if (a == "--topology") {
            const std::string v = next("--topology");
            if (!neo::gpusim::parse_interconnect(v,
                                                 &policy.interconnect)) {
                std::fprintf(stderr,
                             "--topology takes nvlink|pcie, got '%s'\n",
                             v.c_str());
                return 2;
            }
            topology_set = true;
        } else if (a == "--tune") {
            tune_mode = true;
        } else if (a == "--diff") {
            diff_mode = true;
            diff_base = next("--diff");
            diff_cur = next("--diff");
        } else if (a == "--json") {
            json_path = next("--json");
        } else if (a == "--threshold") {
            const char *v = next("--threshold");
            char *end = nullptr;
            errno = 0;
            const double t = std::strtod(v, &end);
            if (end == v || *end != '\0' || errno == ERANGE ||
                !std::isfinite(t) || t < 0) {
                std::fprintf(stderr,
                             "--threshold takes a finite non-negative "
                             "number, got '%s'\n",
                             v);
                return 2;
            }
            copts.threshold = t;
        } else if (a == "--gate-wall") {
            copts.gate_wall = true;
        } else if (a == "--help" || a == "-h") {
            return usage(argv[0]);
        } else if (!a.empty() && a[0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", a.c_str());
            return usage(argv[0]);
        } else if (workload.empty()) {
            workload = a;
        } else {
            std::fprintf(stderr, "extra argument %s\n", a.c_str());
            return usage(argv[0]);
        }
    }

    if (diff_mode) {
        if (!workload.empty()) {
            std::fprintf(stderr, "--diff takes no workload argument\n");
            return 2;
        }
        if (devices > 1 || topology_set) {
            std::fprintf(stderr, "--devices/--topology do not apply to "
                                 "--diff (artifacts carry their own "
                                 "device count)\n");
            return 2;
        }
        try {
            const neo::json::Value base =
                neo::json::Value::parse_file(diff_base);
            const neo::json::Value cur =
                neo::json::Value::parse_file(diff_cur);
            const neo::prof::DiffReport d =
                neo::prof::diff(base, cur, copts);
            neo::prof::print_diff(d, std::cout);
            if (!json_path.empty()) {
                std::ofstream f(json_path);
                if (!f.good()) {
                    std::fprintf(stderr, "neo-prof: cannot open %s\n",
                                 json_path.c_str());
                    return 2;
                }
                f << neo::prof::diff_to_json(d) << '\n';
                std::printf("\nwrote %s\n", json_path.c_str());
            }
            return d.gated() ? 1 : 0;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "neo-prof: %s\n", e.what());
            return 2;
        }
    }

    if (tune_mode) {
        if (devices > 1 || topology_set) {
            std::fprintf(stderr, "--devices/--topology do not apply to "
                                 "--tune (tuned decisions are "
                                 "device-agnostic)\n");
            return 2;
        }
        const std::string out =
            json_path.empty() ? "neo.tune.json" : json_path;
        try {
            const neo::tune::TuningTable table =
                neo::prof::tuning_table_for_workloads();
            table.write_file(out);
            std::printf("wrote %s (%zu site decisions)\n", out.c_str(),
                        table.size());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "neo-prof: %s\n", e.what());
            return 2;
        }
        return 0;
    }
    if (workload.empty())
        return usage(argv[0]);

    // Reject nonsensical flag combinations instead of silently
    // ignoring them.
    if (topology_set && devices < 2) {
        std::fprintf(stderr,
                     "--topology requires --devices >= 2\n");
        return 2;
    }
    if (devices > 1 && workload != "keyswitch") {
        std::fprintf(stderr, "--devices is only modeled for the "
                             "keyswitch workload\n");
        return 2;
    }
    policy.devices = devices;

    try {
        if (engine == "auto")
            policy =
                neo::prof::tuning_table_for_workloads().policy(policy);
        else
            policy.engine = neo::EngineRegistry::parse(engine);
        const neo::prof::Result r =
            neo::prof::profile(workload, policy, level, repeat);
        neo::prof::print_report(r, std::cout);
        if (!json_path.empty()) {
            neo::prof::write_json(r, json_path);
            std::printf("\nwrote %s\n", json_path.c_str());
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "neo-prof: %s\n", e.what());
        return 2;
    }
    return 0;
}
