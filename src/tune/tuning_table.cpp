#include "tune/tuning_table.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <tuple>

#include "common/check.h"

namespace neo::tune {

namespace {

/// Canonical sort key: (n, d_num, level, stage rank, stage name).
auto
order_key(const SiteDecision &d)
{
    // devices sorts last so historical (device-agnostic) tables keep
    // their exact canonical order.
    return std::make_tuple(d.n, d.d_num, d.level, stage_rank(d.stage),
                           std::string_view(d.stage), d.devices);
}

bool
same_site(const SiteDecision &d, std::string_view stage, size_t level,
          size_t d_num, size_t n, size_t devices)
{
    return d.n == n && d.d_num == d_num && d.level == level &&
           d.devices == devices && d.stage == stage;
}

} // namespace

void
TuningTable::add(SiteDecision d)
{
    for (auto &e : entries_) {
        if (same_site(e, d.stage, d.level, d.d_num, d.n, d.devices)) {
            e = std::move(d);
            return;
        }
    }
    const auto key = order_key(d);
    const auto pos = std::find_if(
        entries_.begin(), entries_.end(),
        [&](const SiteDecision &e) { return key < order_key(e); });
    entries_.insert(pos, std::move(d));
}

const SiteDecision *
TuningTable::find(std::string_view stage, size_t level, size_t d_num,
                  size_t n, size_t devices) const
{
    // A decision pinned to this exact device count wins...
    if (devices != 0) {
        for (const auto &e : entries_)
            if (same_site(e, stage, level, d_num, n, devices))
                return &e;
    }
    // ...else a device-agnostic entry matches any run.
    for (const auto &e : entries_)
        if (same_site(e, stage, level, d_num, n, 0))
            return &e;
    return nullptr;
}

std::optional<EngineId>
TuningTable::lookup(std::string_view stage, size_t level, size_t d_num,
                    size_t n, size_t devices) const
{
    if (const SiteDecision *d = find(stage, level, d_num, n, devices))
        return d->engine;
    return std::nullopt;
}

ExecPolicy
TuningTable::policy(ExecPolicy base) const
{
    // Snapshot: the policy owns an immutable copy, so it stays valid
    // after the table (or the profile run that built it) goes away.
    auto table = std::make_shared<const TuningTable>(*this);
    const EngineId fallback = base.engine;
    base.select = EngineSelect::autotune;
    base.site_engine = [table, fallback](const SiteKey &site) {
        if (auto e = table->lookup(site.stage, site.level, site.d_num,
                                   site.n, site.devices))
            return *e;
        return fallback;
    };
    return base;
}

std::string
TuningTable::to_json() const
{
    json::Writer w;
    w.begin_object();
    w.key("schema").value(kSchema);
    w.key("entries").begin_array();
    for (const auto &e : entries_) {
        w.begin_object();
        w.key("stage").value(e.stage);
        w.key("level").value(static_cast<u64>(e.level));
        w.key("d_num").value(static_cast<u64>(e.d_num));
        w.key("n").value(static_cast<u64>(e.n));
        // Additive field: absent means device-agnostic, so historical
        // neo.tune/1 documents round-trip byte-identically.
        if (e.devices != 0)
            w.key("devices").value(static_cast<u64>(e.devices));
        w.key("valid").value(e.valid);
        w.key("engine").value(EngineRegistry::name(e.engine));
        w.key("scores").begin_object();
        for (const auto &s : e.scores)
            w.key(EngineRegistry::name(s.engine)).value(s.seconds);
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
}

void
TuningTable::write_file(const std::string &path) const
{
    const std::string doc = to_json();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    NEO_CHECK(f != nullptr, "cannot open " + path + " for writing");
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fputc('\n', f);
    NEO_CHECK(std::fclose(f) == 0, "write to " + path + " failed");
}

TuningTable
TuningTable::parse(const json::Value &v)
{
    NEO_CHECK(v.at("schema").as_string() == kSchema,
              "tuning table has wrong schema (want neo.tune/1)");
    TuningTable t;
    for (const auto &ev : v.at("entries").as_array()) {
        SiteDecision d;
        d.stage = ev.at("stage").as_string();
        d.level = static_cast<size_t>(ev.at("level").as_number());
        d.d_num = static_cast<size_t>(ev.at("d_num").as_number());
        d.n = static_cast<size_t>(ev.at("n").as_number());
        if (const json::Value *devices = ev.find("devices"))
            d.devices = static_cast<size_t>(devices->as_number());
        if (const json::Value *valid = ev.find("valid"))
            d.valid = valid->as_number();
        d.engine = EngineRegistry::parse(ev.at("engine").as_string());
        if (const json::Value *scores = ev.find("scores")) {
            for (const auto &[name, sv] : scores->as_object())
                d.scores.push_back(
                    {EngineRegistry::parse(name), sv.as_number()});
        }
        t.add(std::move(d));
    }
    return t;
}

TuningTable
TuningTable::from_json(std::string_view text)
{
    return parse(json::Value::parse(text));
}

TuningTable
TuningTable::load_file(const std::string &path)
{
    return parse(json::Value::parse_file(path));
}

} // namespace neo::tune
