// Input generation for the three benchmark workloads. The engine only ever
// sees these generated streams; the seed is the benchmark's --seed.

#ifndef GENMIG_PERFBENCH_WORKLOADS_H_
#define GENMIG_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>

#include "stream/element.h"

namespace perfbench {

using Streams = std::map<std::string, genmig::MaterializedStream>;

// --- join-migrate / sharded-join: the paper's Fig. 4 query shape ----------
//
// Four single-column streams A..D, keys uniform over kJoinKeys. Every
// kJoinPhase units of application time (1 unit = 1 ms) the rates flip 10x
// between the pairs {A,B} and {C,D}, so whichever join order is installed
// goes stale and the optimizer keeps finding a cheaper one.
inline constexpr int64_t kJoinHorizon = 120000;  // 120 s of application time.
inline constexpr int64_t kJoinPhase = 10000;
inline constexpr int64_t kJoinFastPeriod = 2;
inline constexpr int64_t kJoinSlowPeriod = 20;
inline constexpr int64_t kJoinKeys = 400;
inline constexpr const char* kJoinCql =
    "SELECT A.x FROM A [RANGE 2000], B [RANGE 2000], C [RANGE 2000], "
    "D [RANGE 2000] WHERE A.x = B.x AND B.x = C.x AND C.x = D.x";

/// True when {A,B} run at the fast rate in the phase containing `t`.
inline bool JoinAbFast(int64_t t) { return (t / kJoinPhase) % 2 == 0; }

Streams MakeJoinStreams(uint64_t seed);

// --- dedup-late-ckpt: the paper's Fig. 2 PT-failure query -----------------
//
// Two streams with Zipf(1.1) keys over kDedupKeys; a tenth of the elements
// arrive kDedupDelay units late.
inline constexpr int64_t kDedupHorizon = 20000;
inline constexpr int64_t kDedupPeriod = 1;
inline constexpr int64_t kDedupKeys = 2000;
inline constexpr double kDedupSkew = 1.1;
inline constexpr double kDedupLateFraction = 0.1;
inline constexpr int64_t kDedupDelay = 300;
inline constexpr const char* kDedupCql =
    "SELECT DISTINCT A.x FROM A [RANGE 1000], B [RANGE 1000] "
    "WHERE A.x = B.x";

struct DedupInputs {
  Streams ordered;   // What the producers emitted, in timestamp order.
  Streams arrivals;  // The same elements in arrival order.
};
DedupInputs MakeDedupInputs(uint64_t seed);

/// Elements of every stream that start before `end`.
Streams Prefix(const Streams& streams, int64_t end);

size_t ElementCount(const Streams& streams);

}  // namespace perfbench

#endif  // GENMIG_PERFBENCH_WORKLOADS_H_
