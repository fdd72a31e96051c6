#include "prof/prof.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "apps/schedules.h"
#include "baselines/backends.h"
#include "ckks/keygen.h"
#include "common/check.h"
#include "common/random.h"
#include "common/table.h"
#include "gpusim/tcu_model.h"
#include "neo/engine.h"
#include "neo/kernel_model.h"
#include "neo/pipeline.h"
#include "neo/shard.h"
#include "obs/obs.h"
#include "tune/tuner.h"

namespace neo::prof {

using ckks::CkksContext;
using ckks::CkksParams;
using model::KernelModel;
using model::ModelConfig;

namespace {

/// Stamp the policy-derived identity fields of a result.
void
stamp_policy(Result &r, const ExecPolicy &policy)
{
    r.engine = std::string(policy.engine_name());
    r.options.fuse = policy.fuse;
    r.options.graph = policy.graph;
    r.tuning_table = policy.tuning_table;
    r.devices = policy.devices;
    if (policy.devices > 1)
        r.topology = gpusim::interconnect_name(policy.interconnect);
}

/// Fold one attributed schedule, weighted by @p mult invocations,
/// into the result's kernel rows.
void
accumulate_rows(Result &r, const KernelModel::AttributedSchedule &att,
                double mult)
{
    for (const auto &row : att.kernels) {
        KernelRow *dst = nullptr;
        for (auto &k : r.kernels)
            if (k.name == row.name)
                dst = &k;
        if (dst == nullptr) {
            r.kernels.emplace_back();
            dst = &r.kernels.back();
            dst->name = row.name;
        }
        dst->calls += static_cast<u64>(
            std::llround(mult * static_cast<double>(row.calls)));
        dst->modeled_s += row.modeled_s * mult;
        dst->compute_s += row.compute_s * mult;
        dst->memory_s += row.memory_s * mult;
        dst->launch_s += row.launch_s * mult;
        dst->bytes += row.bytes * mult;
    }
    r.bytes += att.schedule.bytes * mult;
    r.launches += att.schedule.launches * mult;
    r.graph_launches += att.schedule.graph_launches * mult;
    r.fused_kernels += static_cast<u64>(
        std::llround(mult * static_cast<double>(att.fused_kernels)));
}

/// Re-derive fractions and bound strings once all rows are in.
void
finalize_rows(Result &r)
{
    for (auto &k : r.kernels) {
        k.fraction = r.modeled_total_s > 0 ? k.modeled_s / r.modeled_total_s
                                           : 0;
        const double roof = std::max(k.compute_s, k.memory_s);
        k.bound = k.launch_s > roof
                      ? "launch"
                      : (k.compute_s >= k.memory_s ? "compute" : "memory");
    }
    // Schedule-level bound from the summed phases.
    double c = 0, m = 0, l = 0;
    for (const auto &k : r.kernels) {
        c += k.compute_s;
        m += k.memory_s;
        l += k.launch_s;
    }
    r.bound = l > std::max(c, m) ? "launch"
                                 : (c >= m ? "compute" : "memory");
}

void
fill_metrics(Result &r)
{
    r.metrics["modeled.total_s"] = r.modeled_total_s;
    r.metrics["bytes.total"] = r.bytes;
    r.metrics["launches.total"] = r.launches;
    for (const auto &k : r.kernels)
        r.metrics["modeled.kernel." + k.name + ".s"] = k.modeled_s;
    for (const auto &[name, count] : r.spans)
        r.metrics[name] = static_cast<double>(count);
    if (r.wall_s > 0)
        r.metrics["wall.total_s"] = r.wall_s;
}

/// The primitive workloads run at functional-test scale so the
/// keyswitch can execute end to end in a ctest-friendly time.
CkksParams
primitive_params()
{
    return CkksParams::test_params(256, 5, 2);
}

Result
profile_keyswitch(const ExecPolicy &policy, size_t level, size_t repeat)
{
    CkksParams params = primitive_params();
    if (level == 0)
        level = params.max_level;
    NEO_CHECK(level <= params.max_level, "level above parameter set's L");

    Result r;
    r.workload = "keyswitch";
    r.mode = "functional";
    r.level = level;
    stamp_policy(r, policy);

    CkksContext ctx(params);
    ckks::KeyGenerator keygen(ctx, 17);
    ckks::SecretKey sk = keygen.secret_key();
    ckks::KlssEvalKey rlk = keygen.to_klss(keygen.relin_key(sk));

    Rng rng(40 + level);
    RnsPoly d2(ctx.n(), ctx.active_mods(level), PolyForm::eval);
    for (size_t i = 0; i < d2.limbs(); ++i)
        for (size_t j = 0; j < d2.n(); ++j)
            d2.limb(i)[j] = rng.uniform(d2.modulus(i).value());

    // The run records into a private Scope so the snapshot below is
    // deterministic even under an ambient NEO_TRACE sink — but the
    // ambient sink still deserves the telemetry (NEO_TRACE=openmetrics
    // on a neo-prof run must export the keyswitch series), so the
    // scope's registry is merged back into it at the end. Events are
    // recorded only when the ambient sink wants them (flamegraph/json).
    obs::Registry *ambient = obs::current();
    obs::Scope::Options sopts;
    sopts.registry.record_events =
        ambient != nullptr && ambient->recording_events();
    obs::Scope scope(sopts);
    const auto run_once = [&] {
        const auto t0 = std::chrono::steady_clock::now();
        (void)keyswitch_klss_pipeline(d2, rlk, ctx, policy);
        const auto t1 = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(t1 - t0).count();
    };
    // The traced run: span counters for exactly one keyswitch. When
    // repeating it doubles as the warmup that fills the hot-path
    // caches, and wall_s becomes the median of the steady-state
    // samples that follow; with repeat == 1 this cold run is the
    // measurement (historical behaviour).
    r.wall_s = run_once();

    // Snapshot the counters before any extra sample runs inflate them.
    for (const auto &[name, count] : scope.registry().counters()) {
        if (name.rfind("span.", 0) == 0 || name == "gemm.calls" ||
            name == "pipeline.keyswitch" ||
            name.rfind("ws.", 0) == 0 || name.rfind("ks.", 0) == 0 ||
            name.rfind("pass.", 0) == 0 ||
            name.rfind("fuse.", 0) == 0 || name.rfind("tune.", 0) == 0)
            r.spans[name] = count;
    }

    // Sharded runs: the pipeline records comm.* byte/time values and
    // per-link gauges; surface them as gate-able metrics (additive —
    // single-device artifacts never see these keys). Snapshot before
    // the extra sample runs, like the counters above: the byte values
    // accumulate per keyswitch, and the gated figure is one run's.
    if (policy.devices > 1) {
        for (const auto &[name, v] : scope.registry().values())
            if (name.rfind("comm.", 0) == 0)
                r.metrics[name] = v;
    }

    if (repeat > 1) {
        std::vector<double> samples(repeat);
        for (auto &s : samples)
            s = run_once();
        std::sort(samples.begin(), samples.end());
        r.wall_s = samples[samples.size() / 2];
        Dist d;
        d.p50 = r.wall_s;
        d.p95 = samples[(19 * samples.size() + 19) / 20 - 1];
        d.max = samples.back();
        r.dist["wall.total_s"] = d;
    }
    if (ambient != nullptr)
        ambient->merge_from(scope.registry());
    const auto want = keyswitch_pipeline_kernel_counts(ctx, level);
    r.expected_spans["gemm"] = want.gemm;
    r.expected_spans["ntt"] = want.ntt;
    r.expected_spans["bconv"] = want.bconv;
    r.expected_spans["ip"] = want.ip;

    const ModelConfig mcfg = model_config(policy, params);
    KernelModel model(params, mcfg);
    if (policy.devices > 1) {
        // Sharded schedule: rows come from the multi-device makespan
        // attribution (kernel stages + comm.* rows, summing to the
        // total exactly — the same invariant as run_attributed).
        const auto sc =
            shard::model_sharded_keyswitch(params, level, mcfg);
        r.modeled_total_s = sc.seconds;
        for (const auto &row : sc.kernels) {
            KernelRow k;
            k.name = row.name;
            k.calls = row.calls;
            k.modeled_s = row.modeled_s;
            k.compute_s = row.compute_s;
            k.memory_s = row.memory_s;
            k.launch_s = row.launch_s;
            k.bytes = row.bytes;
            r.kernels.push_back(std::move(k));
            r.bytes += row.bytes;
        }
        const auto att = model.run_attributed(
            model.keyswitch_kernels_named(level));
        r.launches =
            att.schedule.launches * static_cast<double>(policy.devices);
        r.graph_launches = att.schedule.graph_launches *
                           static_cast<double>(policy.devices);
        r.fused_kernels = att.fused_kernels;
        r.metrics["modeled.single_device.s"] = sc.single_seconds;
        r.metrics["comm.modeled.s"] = sc.comm_s;
        for (const auto &dv : sc.per_device)
            r.per_device.push_back(
                {dv.device, dv.compute_s, dv.comm_s});
        for (const auto &lk : sc.links)
            r.links.push_back(
                {lk.link, lk.bytes, lk.busy_s, lk.utilization});
    } else {
        const auto att = model.run_attributed(
            model.keyswitch_kernels_named(level));
        r.modeled_total_s = att.seconds;
        accumulate_rows(r, att, 1.0);
    }
    r.ip_valid_proportion = gpusim::TcuModel::valid_proportion_fp64(
        params.batch, params.beta_tilde(level), params.beta(level));
    finalize_rows(r);
    fill_metrics(r);
    return r;
}

Result
profile_primitive(const std::string &workload, const ExecPolicy &policy,
                  size_t level)
{
    CkksParams params = primitive_params();
    if (level == 0)
        level = params.max_level;
    NEO_CHECK(level <= params.max_level, "level above parameter set's L");

    Result r;
    r.workload = workload;
    r.mode = "modeled";
    r.level = level;
    stamp_policy(r, policy);

    KernelModel model(params, model_config(policy, params));
    const auto kernels = workload == "mul"
                             ? model.hmult_kernels_named(level)
                             : model.hrotate_kernels_named(level);
    const auto att = model.run_attributed(kernels);
    r.modeled_total_s = att.seconds;
    accumulate_rows(r, att, 1.0);
    r.ip_valid_proportion = gpusim::TcuModel::valid_proportion_fp64(
        params.batch, params.beta_tilde(level), params.beta(level));
    finalize_rows(r);
    fill_metrics(r);
    return r;
}

/// Mirror of apps::run_schedule with per-kernel attribution: each
/// op's named kernel list reprices to exactly the op's *_time(), so
/// the accumulated total matches run_schedule bit for bit.
double
accumulate_schedule(Result &r, const apps::Schedule &s,
                    const KernelModel &m, double mult)
{
    double total = 0;
    for (const auto &o : s.ops) {
        std::vector<KernelModel::NamedKernel> ks;
        const size_t l = o.level;
        switch (o.op) {
        case apps::OpKind::hmult: ks = m.hmult_kernels_named(l); break;
        case apps::OpKind::hrotate: ks = m.hrotate_kernels_named(l); break;
        case apps::OpKind::pmult:
            ks.push_back({"pmult", m.modmul(2 * (l + 1))});
            break;
        case apps::OpKind::hadd:
            ks.push_back({"hadd", m.modadd(2 * (l + 1))});
            break;
        case apps::OpKind::padd:
            ks.push_back({"padd", m.modadd(l + 1)});
            break;
        case apps::OpKind::rescale:
            ks = m.rescale_kernels_named(l);
            break;
        case apps::OpKind::double_rescale:
            ks = m.double_rescale_kernels_named(l);
            break;
        }
        const auto att = m.run_attributed(ks);
        accumulate_rows(r, att, mult * o.count);
        total += att.seconds * o.count;
    }
    if (s.bootstraps > 0) {
        const apps::Schedule bs = apps::pack_bootstrap(m.params());
        total += s.bootstraps *
                 accumulate_schedule(r, bs, m, mult * s.bootstraps);
    }
    return total;
}

Result
profile_app(const std::string &workload, const ExecPolicy &policy)
{
    baselines::Backend neo = baselines::make_neo('C');
    ModelConfig cfg = model_config(policy, neo.params);
    cfg.device = neo.cfg.device; // same A100 either way

    Result r;
    r.workload = workload;
    r.mode = "modeled";
    r.level = neo.params.max_level;
    stamp_policy(r, policy);

    KernelModel model(neo.params, cfg);
    apps::Schedule sched;
    if (workload == "bootstrap")
        sched = apps::pack_bootstrap(neo.params);
    else if (workload == "helr")
        sched = apps::helr_iteration(neo.params);
    else if (workload == "resnet20")
        sched = apps::resnet(neo.params, 20);
    else if (workload == "resnet32")
        sched = apps::resnet(neo.params, 32);
    else
        sched = apps::resnet(neo.params, 56);

    r.modeled_total_s = accumulate_schedule(r, sched, model, 1.0);
    r.ip_valid_proportion = gpusim::TcuModel::valid_proportion_fp64(
        neo.params.batch, neo.params.beta_tilde(r.level),
        neo.params.beta(r.level));
    finalize_rows(r);
    fill_metrics(r);
    return r;
}

} // namespace

const std::vector<std::string> &
workload_names()
{
    static const std::vector<std::string> names = {
        "keyswitch", "mul",      "rotate",   "bootstrap",
        "helr",      "resnet20", "resnet32", "resnet56"};
    return names;
}

tune::TuningTable
tuning_table_for_workloads()
{
    const tune::Tuner tuner;
    tune::TuningTable t;
    tuner.tune(primitive_params(), t);
    tuner.tune(baselines::make_neo('C').params, t);
    return t;
}

Result
profile(const std::string &workload, const ExecPolicy &policy,
        size_t level, size_t repeat)
{
    // Complete an unresolved autotune policy: load the named table,
    // or tune the canonical one in-memory.
    ExecPolicy p = policy;
    if (p.is_auto() && !p.site_engine) {
        const tune::TuningTable table =
            p.tuning_table.empty()
                ? tuning_table_for_workloads()
                : tune::TuningTable::load_file(p.tuning_table);
        p = table.policy(p);
    }
    if (repeat == 0)
        repeat = 1;
    if (p.devices > 1 && workload != "keyswitch")
        throw std::invalid_argument(
            "--devices > 1 is only modeled for the keyswitch workload");
    if (workload == "keyswitch")
        return profile_keyswitch(p, level, repeat);
    if (workload == "mul" || workload == "rotate")
        return profile_primitive(workload, p, level);
    for (const auto &n : workload_names())
        if (n == workload)
            return profile_app(workload, p);
    std::string msg = "unknown workload '" + workload + "' (valid:";
    for (const auto &n : workload_names()) {
        msg += ' ';
        msg += n;
    }
    msg += ')';
    throw std::invalid_argument(msg);
}

void
print_report(const Result &r, std::ostream &out)
{
    out << "neo-prof — workload '" << r.workload << "', engine '"
        << r.engine << "' (" << r.mode << ", level " << r.level
        << ", fuse " << (r.options.fuse ? "on" : "off") << ", graph "
        << (r.options.graph ? "on" : "off");
    if (!r.tuning_table.empty())
        out << ", table " << r.tuning_table;
    out << ")\n";
    out << "  modeled total: " << format_time(r.modeled_total_s);
    if (r.wall_s > 0)
        out << "   wall: " << format_time(r.wall_s);
    out << "   traffic: " << format_bytes(r.bytes)
        << "   launches: " << strfmt("%.0f", r.launches);
    if (r.options.graph)
        out << " (graph replays: " << strfmt("%.0f", r.graph_launches)
            << ")";
    if (r.options.fuse)
        out << "   fused kernels: "
            << strfmt("%llu", (unsigned long long)r.fused_kernels);
    out << "   bound: " << r.bound
        << "   ip_valid: " << strfmt("%.3f", r.ip_valid_proportion)
        << "\n\n";

    TextTable t;
    t.header({"kernel", "calls", "modeled", "% total", "compute",
              "memory", "launch", "bytes", "bound"});
    for (const auto &k : r.kernels) {
        t.row({k.name, strfmt("%llu", (unsigned long long)k.calls),
               format_time(k.modeled_s),
               strfmt("%6.2f%%", 100.0 * k.fraction),
               format_time(k.compute_s), format_time(k.memory_s),
               format_time(k.launch_s), format_bytes(k.bytes), k.bound});
    }
    out << t.str();

    if (r.devices > 1) {
        out << "\nsharded over " << r.devices << " devices ("
            << r.topology << "):\n";
        TextTable d;
        d.header({"device", "compute", "comm"});
        for (const auto &dv : r.per_device)
            d.row({strfmt("%zu", dv.device), format_time(dv.compute_s),
                   format_time(dv.comm_s)});
        out << d.str() << "\n";
        TextTable l;
        l.header({"link", "bytes", "busy", "utilization"});
        for (const auto &lk : r.links)
            l.row({strfmt("%zu", lk.link), format_bytes(lk.bytes),
                   format_time(lk.busy_s),
                   strfmt("%5.1f%%", 100.0 * lk.utilization)});
        out << l.str();
    }

    if (!r.spans.empty()) {
        out << "\ntraced spans";
        if (!r.expected_spans.empty())
            out << " (expected: analytic kernel counts)";
        out << ":\n";
        for (const auto &[name, count] : r.spans)
            out << "  " << name << " = " << count << "\n";
        for (const auto &[name, count] : r.expected_spans)
            out << "  expect." << name << " = " << count << "\n";
    }
}

std::string
to_json(const Result &r)
{
    json::Writer w;
    w.begin_object();
    w.key("schema").value(kSchema);
    w.key("kind").value("profile");
    w.key("workload").value(r.workload);
    w.key("engine").value(r.engine);
    w.key("mode").value(r.mode);
    w.key("level").value(static_cast<u64>(r.level));
    // Additive neo.bench/1 fields (multi-device sharding): absent from
    // single-device artifacts so historical goldens stay byte-exact.
    if (r.devices > 1) {
        w.key("devices").value(static_cast<u64>(r.devices));
        w.key("topology").value(r.topology);
    }

    w.key("options").begin_object();
    w.key("fuse").value(r.options.fuse);
    w.key("graph").value(r.options.graph);
    // Auto-run provenance only; fixed-engine artifacts keep the
    // historical key set (golden files compare it exactly).
    if (!r.tuning_table.empty())
        w.key("tuning_table").value(r.tuning_table);
    w.end_object();

    w.key("totals").begin_object();
    w.key("modeled_s").value(r.modeled_total_s);
    w.key("wall_s").value(r.wall_s);
    w.key("bytes").value(r.bytes);
    w.key("launches").value(r.launches);
    // Additive neo.bench/1 fields (PR 6): graph replays and fused
    // element-wise stages. Baseline compare() reads only `metrics`,
    // so artifacts written before these fields existed still gate.
    w.key("graph_launches").value(r.graph_launches);
    w.key("fused_kernels").value(r.fused_kernels);
    w.key("bound").value(r.bound);
    w.key("ip_valid_proportion").value(r.ip_valid_proportion);
    w.end_object();

    w.key("kernels").begin_array();
    for (const auto &k : r.kernels) {
        w.begin_object();
        w.key("name").value(k.name);
        w.key("calls").value(k.calls);
        w.key("modeled_s").value(k.modeled_s);
        w.key("fraction").value(k.fraction);
        w.key("compute_s").value(k.compute_s);
        w.key("memory_s").value(k.memory_s);
        w.key("launch_s").value(k.launch_s);
        w.key("bytes").value(k.bytes);
        w.key("bound").value(k.bound);
        w.end_object();
    }
    w.end_array();

    // Additive neo.bench/1 arrays (multi-device sharding): per-device
    // compute/comm split and per-link traffic. Absent from
    // single-device artifacts so historical goldens stay byte-exact.
    if (r.devices > 1) {
        w.key("per_device").begin_array();
        for (const auto &dv : r.per_device) {
            w.begin_object();
            w.key("device").value(static_cast<u64>(dv.device));
            w.key("compute_s").value(dv.compute_s);
            w.key("comm_s").value(dv.comm_s);
            w.end_object();
        }
        w.end_array();
        w.key("links").begin_array();
        for (const auto &lk : r.links) {
            w.begin_object();
            w.key("link").value(static_cast<u64>(lk.link));
            w.key("bytes").value(lk.bytes);
            w.key("busy_s").value(lk.busy_s);
            w.key("utilization").value(lk.utilization);
            w.end_object();
        }
        w.end_array();
    }

    w.key("spans").begin_object();
    for (const auto &[name, count] : r.spans)
        w.key(name).value(count);
    w.end_object();

    w.key("expected_spans").begin_object();
    for (const auto &[name, count] : r.expected_spans)
        w.key(name).value(count);
    w.end_object();

    w.key("metrics").begin_object();
    for (const auto &[name, v] : r.metrics)
        w.key(name).value(v);
    w.end_object();

    // Additive neo.bench/1 field (PR 8): sample distributions for
    // repeated metrics. Omitted when empty so repeat==1 artifacts keep
    // the historical key set byte for byte.
    if (!r.dist.empty()) {
        w.key("dist").begin_object();
        for (const auto &[name, d] : r.dist) {
            w.key(name).begin_object();
            w.key("p50").value(d.p50);
            w.key("p95").value(d.p95);
            w.key("max").value(d.max);
            w.end_object();
        }
        w.end_object();
    }

    w.end_object();
    return w.str();
}

void
write_json(const Result &r, const std::string &path)
{
    std::ofstream f(path);
    NEO_CHECK(f.good(), "cannot open " + path + " for writing");
    f << to_json(r) << '\n';
}

std::vector<Regression>
compare(const json::Value &baseline, const json::Value &current,
        const CompareOptions &opts)
{
    NEO_CHECK(baseline.at("schema").as_string() == kSchema,
              "baseline artifact has wrong schema");
    NEO_CHECK(current.at("schema").as_string() == kSchema,
              "current artifact has wrong schema");
    std::vector<Regression> out;
    const auto &base_metrics = baseline.at("metrics").as_object();
    const json::Value &cur_metrics = current.at("metrics");
    for (const auto &[name, bval] : base_metrics) {
        if (!opts.gate_wall && name.find("wall") != std::string::npos)
            continue;
        const double b = bval.as_number();
        const json::Value *cval = cur_metrics.find(name);
        if (cval == nullptr) {
            out.push_back({name, b, 0, 0}); // dropped metric
            continue;
        }
        const double c = cval->as_number();
        if (c > b * (1.0 + opts.threshold) + 1e-12) {
            out.push_back(
                {name, b, c, b > 0 ? c / b
                                   : std::numeric_limits<double>::infinity()});
        }
    }
    return out;
}

namespace {

DiffRow
make_row(const std::string &name, double base, double cur)
{
    DiffRow row;
    row.name = name;
    row.base = base;
    row.cur = cur;
    row.delta = cur - base;
    row.ratio = base != 0 ? cur / base : 0;
    return row;
}

std::string
opt_string(const json::Value &doc, const char *key)
{
    const json::Value *v = doc.find(key);
    return v != nullptr ? v->as_string() : std::string();
}

/// kernel name -> modeled_s from an artifact's `kernels` array
/// (empty for artifacts without one, e.g. bench-harness reports).
std::map<std::string, double>
kernel_times(const json::Value &doc)
{
    std::map<std::string, double> out;
    const json::Value *kernels = doc.find("kernels");
    if (kernels == nullptr)
        return out;
    for (const auto &row : kernels->as_array())
        out[row.at("name").as_string()] = row.at("modeled_s").as_number();
    return out;
}

std::map<std::string, double>
number_map(const json::Value &doc, const char *key)
{
    std::map<std::string, double> out;
    const json::Value *obj = doc.find(key);
    if (obj == nullptr)
        return out;
    for (const auto &[name, v] : obj->as_object())
        out[name] = v.as_number();
    return out;
}

/// Union the two maps into changed-only DiffRows (absent side -> 0),
/// sorted by name (map order).
std::vector<DiffRow>
changed_rows(const std::map<std::string, double> &base,
             const std::map<std::string, double> &cur)
{
    std::map<std::string, std::pair<double, double>> joined;
    for (const auto &[name, v] : base)
        joined[name].first = v;
    for (const auto &[name, v] : cur)
        joined[name].second = v;
    std::vector<DiffRow> out;
    for (const auto &[name, bc] : joined) {
        if (bc.first == bc.second)
            continue;
        out.push_back(make_row(name, bc.first, bc.second));
    }
    return out;
}

} // namespace

DiffReport
diff(const json::Value &baseline, const json::Value &current,
     const CompareOptions &opts)
{
    DiffReport d;
    d.regressions = compare(baseline, current, opts); // also checks schema
    d.threshold = opts.threshold;
    d.base_workload = opt_string(baseline, "workload");
    d.cur_workload = opt_string(current, "workload");
    d.base_engine = opt_string(baseline, "engine");
    d.cur_engine = opt_string(current, "engine");
    if (const json::Value *t = baseline.find("totals"))
        d.base_total_s = t->at("modeled_s").as_number();
    if (const json::Value *t = current.find("totals"))
        d.cur_total_s = t->at("modeled_s").as_number();

    // Kernel attribution: every kernel of either side, with its share
    // of the total modeled-time movement. Shares of an exact kernel
    // decomposition sum to 1 when the totals moved.
    const double total_delta = d.cur_total_s - d.base_total_s;
    const auto base_k = kernel_times(baseline);
    const auto cur_k = kernel_times(current);
    std::map<std::string, std::pair<double, double>> joined;
    for (const auto &[name, v] : base_k)
        joined[name].first = v;
    for (const auto &[name, v] : cur_k)
        joined[name].second = v;
    for (const auto &[name, bc] : joined) {
        DiffRow row = make_row(name, bc.first, bc.second);
        if (total_delta != 0)
            row.share = row.delta / total_delta;
        d.kernels.push_back(row);
    }
    std::sort(d.kernels.begin(), d.kernels.end(),
              [](const DiffRow &a, const DiffRow &b) {
                  const double da = std::abs(a.delta);
                  const double db = std::abs(b.delta);
                  if (da != db)
                      return da > db;
                  return a.name < b.name;
              });

    d.spans = changed_rows(number_map(baseline, "spans"),
                           number_map(current, "spans"));

    // Per-kernel modeled times already live in the kernels table;
    // keep the metrics table to the schedule-level rows.
    auto base_m = number_map(baseline, "metrics");
    auto cur_m = number_map(current, "metrics");
    const auto strip_kernel_rows = [](std::map<std::string, double> &m) {
        for (auto it = m.begin(); it != m.end();) {
            if (it->first.rfind("modeled.kernel.", 0) == 0)
                it = m.erase(it);
            else
                ++it;
        }
    };
    strip_kernel_rows(base_m);
    strip_kernel_rows(cur_m);
    d.metrics = changed_rows(base_m, cur_m);
    return d;
}

void
print_diff(const DiffReport &d, std::ostream &out)
{
    out << "neo-prof diff: " << d.base_workload << " (" << d.base_engine
        << ") -> " << d.cur_workload << " (" << d.cur_engine << ")\n";
    out << "modeled total: " << d.base_total_s << " s -> " << d.cur_total_s
        << " s (delta " << d.cur_total_s - d.base_total_s << " s)\n";

    if (!d.kernels.empty()) {
        out << "\nkernel attribution (|delta| descending):\n";
        for (const auto &k : d.kernels) {
            out << "  " << k.name << ": " << k.base << " -> " << k.cur
                << " s (delta " << k.delta;
            if (k.share != 0)
                out << ", " << k.share * 100.0 << "% of movement";
            out << ")\n";
        }
    }
    if (!d.spans.empty()) {
        out << "\nchanged spans:\n";
        for (const auto &s : d.spans)
            out << "  " << s.name << ": " << s.base << " -> " << s.cur
                << "\n";
    }
    if (!d.metrics.empty()) {
        out << "\nchanged metrics:\n";
        for (const auto &m : d.metrics)
            out << "  " << m.name << ": " << m.base << " -> " << m.cur
                << " (delta " << m.delta << ")\n";
    }
    if (d.regressions.empty()) {
        out << "\ngate: PASS (threshold " << d.threshold * 100 << "%)\n";
    } else {
        out << "\ngate: FAIL (threshold " << d.threshold * 100 << "%)\n";
        for (const auto &reg : d.regressions)
            out << "  " << reg.metric << ": " << reg.baseline << " -> "
                << reg.current << "\n";
    }
}

std::string
diff_to_json(const DiffReport &d)
{
    json::Writer w;
    const auto write_rows = [&w](const char *key,
                                 const std::vector<DiffRow> &rows,
                                 bool with_share) {
        w.key(key).begin_array();
        for (const auto &r : rows) {
            w.begin_object();
            w.key("name").value(r.name);
            w.key("base").value(r.base);
            w.key("cur").value(r.cur);
            w.key("delta").value(r.delta);
            w.key("ratio").value(r.ratio);
            if (with_share)
                w.key("share").value(r.share);
            w.end_object();
        }
        w.end_array();
    };

    w.begin_object();
    w.key("schema").value(kDiffSchema);
    w.key("base").begin_object();
    w.key("workload").value(d.base_workload);
    w.key("engine").value(d.base_engine);
    w.key("modeled_total_s").value(d.base_total_s);
    w.end_object();
    w.key("cur").begin_object();
    w.key("workload").value(d.cur_workload);
    w.key("engine").value(d.cur_engine);
    w.key("modeled_total_s").value(d.cur_total_s);
    w.end_object();
    w.key("threshold").value(d.threshold);
    write_rows("kernels", d.kernels, true);
    write_rows("spans", d.spans, false);
    write_rows("metrics", d.metrics, false);
    w.key("regressions").begin_array();
    for (const auto &reg : d.regressions) {
        w.begin_object();
        w.key("metric").value(reg.metric);
        w.key("baseline").value(reg.baseline);
        w.key("current").value(reg.current);
        // inf (zero-baseline regression) is not a JSON number; exports
        // as 0 like DiffRow::ratio.
        w.key("ratio").value(std::isfinite(reg.ratio) ? reg.ratio : 0.0);
        w.end_object();
    }
    w.end_array();
    w.key("gated").value(d.gated());
    w.end_object();
    return w.str();
}

} // namespace neo::prof
