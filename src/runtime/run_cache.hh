/**
 * @file
 * On-disk spill of simulation results (rt::Engine's persistent cache).
 *
 * A cache file is a single JSON document mapping RunKey strings to fully
 * serialized NetRun records.  Doubles are written with 17 significant
 * digits so every statistic round-trips bit-exactly — a NetRun recalled
 * from disk is indistinguishable from one the simulator just produced.
 *
 * The format is versioned; a file whose version does not match
 * kRunCacheVersion is ignored wholesale (simulation is cheap enough
 * that migrating stale results is never worth the risk of mixing
 * statistics from two simulator revisions).
 */

#ifndef TANGO_RUNTIME_RUN_CACHE_HH
#define TANGO_RUNTIME_RUN_CACHE_HH

#include <map>
#include <string>

#include "common/json.hh"
#include "runtime/runtime.hh"

namespace tango::rt {

/** Bump when NetRun/KernelStats serialization changes shape. */
constexpr int kRunCacheVersion = 2;   // 2: KernelStats.replayed

/**
 * Revision of the numbers the simulator produces, independent of the
 * serialization shape.  Bump whenever a simulator change intentionally
 * alters any reported statistic, so cached NetRuns from the previous
 * model are not mixed with fresh ones.  Performance-only rewrites that
 * keep every statistic bit-identical (enforced by tests/test_golden_stats)
 * must NOT bump this.
 */
constexpr int kSimStatsVersion = 2;   // 2: default RNN seqLen 2 -> 32,
                                      //    launch meta-counters in totals

/** Serialize one NetRun as a JSON object (no surrounding whitespace). */
std::string serializeNetRun(const NetRun &run);

/**
 * Parse one NetRun from its serializeNetRun() JSON form.
 * Also the golden-fixture format of tests/test_golden_stats.cc.
 * @return false (out untouched) on malformed input; never throws.
 */
bool parseNetRunJson(const std::string &text, NetRun &out);

/**
 * Decode the serializeNetRun() object at @p p's cursor in one pass,
 * straight from the text: the one NetRun decoder behind
 * parseNetRunJson(), loadRunCache() and serve result frames.  Missing
 * or unknown fields and values of the wrong type are tolerated (the
 * field keeps its default); a repeated key's last value wins.
 * @throws std::runtime_error ("json: ...") on malformed JSON or when
 *         the value is not an object.
 */
NetRun readNetRun(json::Reader &p);

/**
 * Load a cache file.
 *
 * A file with a truncated or corrupt *tail* (interrupted write, disk
 * full) keeps every entry before the damage: the bad suffix is discarded
 * with a warning.  Damage before the version header, or a version
 * mismatch, still discards the file wholesale.
 *
 * @return key -> NetRun map; empty if the file is missing, unreadable,
 *         malformed before any entry, or of a different version (never
 *         throws).
 */
std::map<std::string, NetRun> loadRunCache(const std::string &path);

/**
 * Atomically write @p runs to @p path (tmp file + rename).
 * @param max_bytes if > 0, stop adding entries once the file would
 *        exceed this size (the skipped entries are re-simulated next
 *        time); the written file is always complete, valid JSON.
 * @return false on I/O failure.
 */
bool saveRunCache(const std::string &path,
                  const std::map<std::string, NetRun> &runs,
                  uint64_t max_bytes = 0);

} // namespace tango::rt

#endif // TANGO_RUNTIME_RUN_CACHE_HH
