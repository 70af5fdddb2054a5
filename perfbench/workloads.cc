#include "workloads.h"

#include <random>

#include "stream/generator.h"

namespace perfbench {

using genmig::MaterializedStream;

Streams MakeJoinStreams(uint64_t seed) {
  Streams streams;
  const char* names[] = {"A", "B", "C", "D"};
  for (int s = 0; s < 4; ++s) {
    std::mt19937_64 rng(seed * 1000003 + static_cast<uint64_t>(s));
    std::uniform_int_distribution<int64_t> key(0, kJoinKeys - 1);
    std::vector<genmig::TimedTuple> raw;
    const bool ab = s < 2;
    // Streams of one pair are offset by one unit so that their elements do
    // not share timestamps.
    for (int64_t t = s % 2; t < kJoinHorizon;) {
      raw.push_back({genmig::Tuple::OfInts({key(rng)}), t});
      t += JoinAbFast(t) == ab ? kJoinFastPeriod : kJoinSlowPeriod;
    }
    streams[names[s]] = genmig::ToPhysicalStream(raw);
  }
  return streams;
}

DedupInputs MakeDedupInputs(uint64_t seed) {
  DedupInputs in;
  const char* names[] = {"A", "B"};
  for (int s = 0; s < 2; ++s) {
    const uint64_t stream_seed = seed * 1000003 + 17 + static_cast<uint64_t>(s);
    MaterializedStream ordered =
        genmig::ToPhysicalStream(genmig::GenerateZipfStream(
            static_cast<size_t>(kDedupHorizon / kDedupPeriod), kDedupPeriod,
            kDedupKeys, kDedupSkew, stream_seed, s));
    in.arrivals[names[s]] =
        genmig::ApplyLateFraction(ordered, kDedupLateFraction, kDedupDelay,
                                  stream_seed ^ 0x5bd1e995)
            .arrivals;
    in.ordered[names[s]] = std::move(ordered);
  }
  return in;
}

Streams Prefix(const Streams& streams, int64_t end) {
  Streams out;
  for (const auto& [name, stream] : streams) {
    MaterializedStream& p = out[name];
    for (const genmig::StreamElement& e : stream) {
      if (e.interval.start.t < end) p.push_back(e);
    }
  }
  return out;
}

size_t ElementCount(const Streams& streams) {
  size_t n = 0;
  for (const auto& entry : streams) n += entry.second.size();
  return n;
}

}  // namespace perfbench
