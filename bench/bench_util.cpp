#include "bench_util.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/json.h"
#include "common/thread_pool.h"
#include "neo/engine.h"

namespace neo::bench {

void
banner(const char *id, const char *what)
{
    std::printf("=== %s — %s ===\n", id, what);
}

size_t
use_threads(size_t threads)
{
    ThreadPool::set_global_threads(threads);
    return ThreadPool::global().threads();
}

std::string
vs_paper(double ours, double paper)
{
    return strfmt("%8.3f (paper %7.3f)", ours, paper);
}

Options
Options::parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires an argument\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        auto positive = [&](const char *flag) -> size_t {
            const char *v = next(flag);
            char *end = nullptr;
            errno = 0;
            const long long n = std::strtoll(v, &end, 10);
            if (end == v || *end != '\0' || errno == ERANGE || n < 1) {
                std::fprintf(stderr,
                             "%s takes a positive integer, got '%s'\n",
                             flag, v);
                std::exit(2);
            }
            return static_cast<size_t>(n);
        };
        if (std::strcmp(a, "--json") == 0) {
            o.json_path = next("--json");
        } else if (std::strcmp(a, "--threads") == 0) {
            o.threads = positive("--threads");
        } else if (std::strcmp(a, "--repeat") == 0) {
            o.repeat = positive("--repeat");
        } else if (std::strcmp(a, "--engine") == 0) {
            const char *name = next("--engine");
            if (std::strcmp(name, "auto") == 0) {
                o.engine.reset();
            } else if (auto id = EngineRegistry::try_parse(name)) {
                o.engine = *id;
            } else {
                std::fprintf(stderr,
                             "unknown engine '%s' (valid: %s | auto)\n",
                             name,
                             EngineRegistry::help_list().c_str());
                std::exit(2);
            }
        } else if (std::strcmp(a, "--help") == 0 ||
                   std::strcmp(a, "-h") == 0) {
            std::printf("usage: %s [--json PATH] [--threads N]"
                        " [--repeat N] [--engine %s | auto]\n",
                        argv[0],
                        EngineRegistry::help_list().c_str());
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown argument %s "
                                 "(try --help)\n", a);
            std::exit(2);
        }
    }
    if (o.threads != 0)
        use_threads(o.threads);
    return o;
}

Report::Report(const Options &opts, const char *id, const char *title)
    : json_path_(opts.json_path), id_(id), title_(title)
{
}

void
Report::metric(std::string_view name, double value)
{
    metrics_.emplace_back(std::string(name), value);
}

void
Report::sample(std::string_view name, std::vector<double> samples)
{
    if (samples.empty())
        return;
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    metric(name, samples[n / 2]);
    if (n > 1) {
        Dist d;
        d.p50 = samples[n / 2];
        d.p95 = samples[(19 * n + 19) / 20 - 1];
        d.max = samples.back();
        dists_.emplace_back(std::string(name), d);
    }
}

void
Report::note(std::string_view key, std::string_view value)
{
    notes_.emplace_back(std::string(key), std::string(value));
}

std::string
Report::write() const
{
    if (json_path_.empty())
        return {};
    json::Writer w;
    w.begin_object();
    w.key("schema").value("neo.bench/1");
    w.key("kind").value("bench");
    w.key("id").value(id_);
    w.key("title").value(title_);
    w.key("notes").begin_object();
    for (const auto &[k, v] : notes_)
        w.key(k).value(v);
    w.end_object();
    w.key("metrics").begin_object();
    for (const auto &[k, v] : metrics_)
        w.key(k).value(v);
    w.end_object();
    if (!dists_.empty()) {
        w.key("dist").begin_object();
        for (const auto &[k, d] : dists_) {
            w.key(k).begin_object();
            w.key("p50").value(d.p50);
            w.key("p95").value(d.p95);
            w.key("max").value(d.max);
            w.end_object();
        }
        w.end_object();
    }
    w.end_object();
    w.write_file(json_path_);
    std::printf("\nwrote %s\n", json_path_.c_str());
    return json_path_;
}

} // namespace neo::bench
