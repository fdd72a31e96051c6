/**
 * @file
 * The per-site engine tuning table (`neo.tune/1`): the output of
 * neo::tune::Tuner. policy() turns it into an autotune ExecPolicy in
 * memory; to_json()/write_file() write it as a reviewable artifact
 * (the checked-in neo.tune.json). Nothing reads a table back in.
 *
 * Each entry is one decision — "at kernel site (stage, level, d_num,
 * N) run engine E" — together with the per-engine modeled scores that
 * justified it, so a checked-in table is reviewable: a reader can see
 * *why* the tuner picked each engine without re-running it. Entries
 * are kept in a canonical order ((n, d_num, level, stage)) and the
 * JSON writer is deterministic, so regenerating an unchanged table is
 * a no-op diff.
 *
 * Engine selection never changes results (every engine is bit-exact);
 * a table only chooses which correct engine executes each site.
 *
 * Thread-safety model: a TuningTable is immutable after the tuner
 * builds it. It intentionally carries no mutex — the annotated-lock
 * layer (common/mutex.h) applies to mutable shared state only, and
 * the policy() resolver closes over an immutable snapshot.
 */
#pragma once

#include <string>
#include <vector>

#include "neo/exec_policy.h"

namespace neo::tune {

/// Tuning-table schema identifier; bump on breaking layout changes.
inline constexpr const char *kSchema = "neo.tune/1";

/// Modeled score of one candidate engine at one site (seconds; lower
/// is better — the tuner's objective, not a wall-clock measurement).
struct SiteScore
{
    EngineId engine = EngineId::fp64_tcu;
    double seconds = 0;
};

/** One tuned site: the key, the decision and its justification. */
struct SiteDecision
{
    std::string stage; ///< a neo::stage name
    size_t level = 0;
    size_t d_num = 0;
    size_t n = 0;
    /// FP64 fragment valid proportion at this site (§4.5.3) —
    /// informational, not part of the lookup key.
    double valid = 0;
    EngineId engine = EngineId::fp64_tcu; ///< the decision
    /// Per-engine scores, in EngineRegistry::ids() order.
    std::vector<SiteScore> scores;
};

/** A set of per-site decisions with deterministic JSON output. */
class TuningTable
{
  public:
    /// Insert @p d, replacing any entry with the same key.
    void add(SiteDecision d);

    /// Entries in canonical (n, d_num, level, stage) order.
    const std::vector<SiteDecision> &entries() const { return entries_; }
    size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

    /**
     * An autotune ExecPolicy backed by a snapshot of this table: its
     * site_engine returns the decision for an exact (stage, level,
     * d_num, N) match. @p base supplies the non-engine axes (fuse,
     * graph, devices) and the fallback engine for sites the table has
     * no decision for; its site_engine is overwritten.
     */
    ExecPolicy policy(ExecPolicy base = {}) const;

    /// Deterministic `neo.tune/1` document (canonical entry order).
    std::string to_json() const;
    /// to_json + write to @p path (with trailing newline).
    void write_file(const std::string &path) const;

  private:
    std::vector<SiteDecision> entries_; ///< kept in canonical order
};

} // namespace neo::tune
