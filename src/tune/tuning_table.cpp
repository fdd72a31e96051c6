#include "tune/tuning_table.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string_view>
#include <tuple>

#include "common/check.h"
#include "common/json.h"

namespace neo::tune {

namespace {

/// Canonical sort key: (n, d_num, level, stage rank, stage name).
auto
order_key(const SiteDecision &d)
{
    return std::make_tuple(d.n, d.d_num, d.level, stage_rank(d.stage),
                           std::string_view(d.stage));
}

} // namespace

void
TuningTable::add(SiteDecision d)
{
    const auto key = order_key(d);
    const auto pos = std::find_if(
        entries_.begin(), entries_.end(),
        [&](const SiteDecision &e) { return !(order_key(e) < key); });
    if (pos != entries_.end() && order_key(*pos) == key)
        *pos = std::move(d);
    else
        entries_.insert(pos, std::move(d));
}

ExecPolicy
TuningTable::policy(ExecPolicy base) const
{
    // Snapshot: the policy owns an immutable copy, so it stays valid
    // after the table (or the profile run that built it) goes away.
    auto table = std::make_shared<const TuningTable>(*this);
    const EngineId fallback = base.engine;
    base.site_engine = [table, fallback](const SiteKey &site) {
        for (const auto &e : table->entries())
            if (e.n == site.n && e.d_num == site.d_num &&
                e.level == site.level && e.stage == site.stage)
                return e.engine;
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

} // namespace neo::tune
