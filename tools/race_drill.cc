/// \file
/// Deliberately-racy mutation drill for ThreadSanitizer builds.
///
/// The determinism test harness proves the parallel engine produces
/// byte-identical results at any thread count -- but a harness that can
/// never fail proves nothing. This binary is the positive control: it
/// performs the exact mutation pattern the engine's design forbids
/// (many ParallelLanes lanes incrementing ONE shared accumulator with no
/// synchronization) and must make ThreadSanitizer report a data race.
/// Under SR_SANITIZE=thread it is the WILL_FAIL ctest
/// RaceDrill.TsanTripsOnAKnownRace (TSAN_OPTIONS=halt_on_error=1), which
/// FAILS IF THIS EXITS ZERO: a TSan build that lets this through would
/// also let a real engine race through.
///
/// Without TSan the program is harmless (the count may merely come up
/// short) and exits 0.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/parallel.h"

namespace {

struct SharedState {
  long long accumulator = 0;  // written racily on purpose
  // Rendezvous: every lane registers, then spins until a second lane has
  // registered. A registered lane blocks its executing thread, so the
  // second registration can only come from a DIFFERENT thread -- this
  // guarantees two threads are inside lanes concurrently even on a
  // single-core machine where the caller would otherwise drain all the
  // (short) lanes before any pool thread wakes up.
  std::atomic<int> lanes_entered{0};
};

}  // namespace

int main() {
  constexpr size_t kLanes = 8;
  constexpr size_t kThreads = 4;  // explicit: never serial-fallback
  constexpr int kIncrementsPerLane = 20000;

  SharedState state;
  // Each lane hammers the same location. Correct engine code gives every
  // lane private state in an index-addressed slot (eval::DseSweep::Run);
  // this is the forbidden shortcut, kept alive as a sanitizer tripwire.
  stemroot::ParallelLanes(kLanes, kThreads, [&state](size_t) {
    state.lanes_entered.fetch_add(1, std::memory_order_relaxed);
    while (state.lanes_entered.load(std::memory_order_relaxed) < 2)
      std::this_thread::yield();
    for (int i = 0; i < kIncrementsPerLane; ++i) state.accumulator += 1;
  });

  const long long expected =
      static_cast<long long>(kLanes) * kIncrementsPerLane;
  std::printf("race_drill: accumulator=%lld expected=%lld%s\n",
              state.accumulator, expected,
              state.accumulator == expected ? "" : " (lost updates)");
  // Success regardless of the count: only TSan is supposed to object.
  return 0;
}
