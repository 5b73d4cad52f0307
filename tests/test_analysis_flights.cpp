#include "analysis/flights.hpp"

#include <gtest/gtest.h>

#include "analysis/analysis_report.hpp"
#include "analysis_goldens.hpp"
#include "stats/samplers.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace slmob {
namespace {

void put_fit(ByteWriter& w, const PowerLawFit& f) {
  w.f64(f.alpha);
  w.f64(f.xmin);
  w.u64(static_cast<std::uint64_t>(f.n));
}

// CRC-32 over a canonical serialization of a FlightAnalysis (Ecdfs as the
// report fingerprint writes them), as golden::kFlights pins it.
std::uint32_t flights_fingerprint(const FlightAnalysis& f) {
  ByteWriter w;
  put_ecdf(w, f.flight_lengths);
  put_ecdf(w, f.pause_times);
  w.u64(static_cast<std::uint64_t>(f.sessions_analyzed));
  put_fit(w, f.flight_fit);
  put_fit(w, f.pause_fit);
  return crc32(w.bytes());
}

// One avatar sampled every 10 s along the given x positions.
Trace path_trace(std::initializer_list<double> xs) {
  Trace t("f", 10.0);
  Seconds time = 0.0;
  for (const double x : xs) {
    Snapshot s;
    s.time = time;
    time += 10.0;
    s.fixes.push_back({AvatarId{1}, {x, 0.0, 22.0}});
    t.add(std::move(s));
  }
  return t;
}

TEST(Flights, StationaryUserIsOneLongPause) {
  const Trace t = path_trace({50.0, 50.0, 50.0, 50.0});
  const FlightAnalysis a = analyze_flights(t);
  EXPECT_EQ(a.flight_lengths.size(), 0u);
  ASSERT_EQ(a.pause_times.size(), 1u);
  EXPECT_DOUBLE_EQ(a.pause_times.median(), 30.0);
}

TEST(Flights, SingleFlightBetweenPauses) {
  // Pause (2 intervals), move 60 m over 2 intervals, pause again.
  const Trace t = path_trace({0.0, 0.0, 0.0, 30.0, 60.0, 60.0, 60.0});
  const FlightAnalysis a = analyze_flights(t);
  ASSERT_EQ(a.flight_lengths.size(), 1u);
  EXPECT_DOUBLE_EQ(a.flight_lengths.median(), 60.0);
  ASSERT_EQ(a.pause_times.size(), 2u);
}

TEST(Flights, TwoFlightsSplitByPause) {
  const Trace t = path_trace({0.0, 20.0, 20.0, 20.0, 50.0, 50.0, 50.0});
  const FlightAnalysis a = analyze_flights(t);
  ASSERT_EQ(a.flight_lengths.size(), 2u);
  EXPECT_DOUBLE_EQ(a.flight_lengths.min(), 20.0);
  EXPECT_DOUBLE_EQ(a.flight_lengths.max(), 30.0);
}

TEST(Flights, SubThresholdJitterIsPause) {
  // 1 m per 10 s = 0.1 m/s < threshold 0.15: still pausing.
  const Trace t = path_trace({0.0, 1.0, 0.0, 1.0, 0.0});
  const FlightAnalysis a = analyze_flights(t);
  EXPECT_EQ(a.flight_lengths.size(), 0u);
  EXPECT_EQ(a.pause_times.size(), 1u);
}

TEST(Flights, MinFlightLengthFilters) {
  FlightAnalysisOptions options;
  options.min_flight_length = 50.0;
  const Trace t = path_trace({0.0, 30.0, 30.0, 30.0});
  const FlightAnalysis a = analyze_flights(t, options);
  EXPECT_EQ(a.flight_lengths.size(), 0u);  // 30 m flight filtered out
}

TEST(Flights, OpenFlightAtLogoutIsClosed) {
  const Trace t = path_trace({0.0, 0.0, 30.0, 60.0});
  const FlightAnalysis a = analyze_flights(t);
  ASSERT_EQ(a.flight_lengths.size(), 1u);
  EXPECT_DOUBLE_EQ(a.flight_lengths.median(), 60.0);
}

TEST(Flights, MultipleSessionsIndependent) {
  Trace t("f", 10.0);
  // Session 1: fixes at t=0..20 moving; 100 s gap; session 2 stationary.
  const double xs1[] = {0.0, 30.0, 60.0};
  for (int i = 0; i < 3; ++i) {
    Snapshot s;
    s.time = i * 10.0;
    s.fixes.push_back({AvatarId{1}, {xs1[i], 0.0, 22.0}});
    t.add(std::move(s));
  }
  for (int i = 0; i < 3; ++i) {
    Snapshot s;
    s.time = 200.0 + i * 10.0;
    s.fixes.push_back({AvatarId{1}, {0.0, 0.0, 22.0}});
    t.add(std::move(s));
  }
  const FlightAnalysis a = analyze_flights(t);
  EXPECT_EQ(a.sessions_analyzed, 2u);
  EXPECT_EQ(a.flight_lengths.size(), 1u);  // the gap is not a 200 m flight
}

TEST(Flights, GoldenFingerprints) {
  const FlightAnalysis plain = analyze_flights(golden::flights_trace());
  EXPECT_GT(plain.sessions_analyzed, 0u);
  EXPECT_GT(plain.flight_lengths.size(), 0u);
  EXPECT_EQ(flights_fingerprint(plain), golden::kFlights);
  const FlightAnalysis gapped = analyze_flights(golden::flights_gapped_trace());
  EXPECT_GT(gapped.sessions_analyzed, 0u);
  EXPECT_EQ(flights_fingerprint(gapped), golden::kFlightsGapped);
}

TEST(Flights, PowerLawFitOnSyntheticLevyTrace) {
  // Build a trace whose flight lengths are Pareto(5, 1.6): the fitter
  // should recover the exponent from the trace alone.
  Rng rng(3);
  ParetoSampler flights(5.0, 1.6);
  Trace t("levy", 10.0);
  double x = 0.0;
  Seconds time = 0.0;
  for (int leg = 0; leg < 3000; ++leg) {
    // Pause 3 snapshots.
    for (int p = 0; p < 3; ++p) {
      Snapshot s;
      s.time = time;
      time += 10.0;
      s.fixes.push_back({AvatarId{1}, {x, 0.0, 22.0}});
      t.add(std::move(s));
    }
    // One-interval flight of Pareto length (teleport-like, but the
    // decomposition only uses displacement).
    x += flights.sample(rng);
    Snapshot s;
    s.time = time;
    time += 10.0;
    s.fixes.push_back({AvatarId{1}, {x, 0.0, 22.0}});
    t.add(std::move(s));
  }
  FlightAnalysisOptions options;
  options.min_flight_length = 5.0;
  options.sessions.absence_threshold = 1e12;  // one long session
  const FlightAnalysis a = analyze_flights(t, options);
  ASSERT_GT(a.flight_lengths.size(), 2000u);
  EXPECT_NEAR(a.flight_fit.alpha, 1.6, 0.15);
}

}  // namespace
}  // namespace slmob
