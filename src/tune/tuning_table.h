/**
 * @file
 * The per-site engine tuning table (`neo.tune/1`): the serialized
 * output of neo::tune::Tuner and the input of an autotune ExecPolicy.
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
 * Thread-safety model: a TuningTable is immutable after construction
 * (build/parse it once, then share by const reference or
 * `shared_ptr<const TuningTable>`). It intentionally carries no
 * mutex — the annotated-lock layer (common/mutex.h) applies to
 * mutable shared state only, and the policy() resolver closes over
 * the table by value of that const handle.
 */
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
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
    /**
     * Device count this decision is pinned to; 0 — the default and
     * the only value historical tables contain — means
     * device-agnostic (matches a run with any --devices). Nonzero
     * entries win over agnostic ones at their exact device count.
     * Serialized only when nonzero, so `neo.tune/1` is unchanged.
     */
    size_t devices = 0;
    EngineId engine = EngineId::fp64_tcu; ///< the decision
    /// Per-engine scores, in EngineRegistry::ids() order.
    std::vector<SiteScore> scores;
};

/**
 * A set of per-site decisions with exact-match lookup and
 * deterministic JSON (de)serialization.
 */
class TuningTable
{
  public:
    /// Insert @p d, replacing any entry with the same key.
    void add(SiteDecision d);

    /**
     * Lookup for a run on @p devices devices (0 = "agnostic only",
     * the historical call): a decision pinned to exactly @p devices
     * wins; otherwise a device-agnostic entry (devices == 0) matches;
     * nullopt when the site was never tuned.
     */
    std::optional<EngineId> lookup(std::string_view stage, size_t level,
                                   size_t d_num, size_t n,
                                   size_t devices = 0) const;

    /// The full entry for a site (scores included); nullptr if absent.
    /// Same exact-then-agnostic device matching as lookup().
    const SiteDecision *find(std::string_view stage, size_t level,
                             size_t d_num, size_t n,
                             size_t devices = 0) const;

    /// Entries in canonical (n, d_num, level, stage) order.
    const std::vector<SiteDecision> &entries() const { return entries_; }
    size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

    /**
     * An autotune ExecPolicy backed by a snapshot of this table.
     * @p base supplies the non-engine axes (fuse, graph) and the
     * fallback engine for sites the table has no decision for; its
     * select/site_engine fields are overwritten.
     */
    ExecPolicy policy(ExecPolicy base = {}) const;

    /// Deterministic `neo.tune/1` document (canonical entry order).
    std::string to_json() const;
    /// to_json + write to @p path (with trailing newline).
    void write_file(const std::string &path) const;

    /// Parse a `neo.tune/1` document; throws on schema/field errors.
    static TuningTable from_json(std::string_view text);
    static TuningTable parse(const json::Value &v);
    /// Parse the contents of @p path; throws if unreadable.
    static TuningTable load_file(const std::string &path);

  private:
    std::vector<SiteDecision> entries_; ///< kept in canonical order
};

} // namespace neo::tune
