#include "src/nexmark/queries.h"

#include "src/common/logging.h"

namespace capsys {
namespace {

// Shorthand for building profiles. Costs: CPU-seconds, state bytes, output bytes per record.
OperatorProfile Profile(double cpu_us, double io_bytes, double out_bytes, double selectivity,
                        bool stateful = false, double gc = 0.0) {
  OperatorProfile p;
  p.cpu_per_record = cpu_us * 1e-6;
  p.io_bytes_per_record = io_bytes;
  p.out_bytes_per_record = out_bytes;
  p.selectivity = selectivity;
  p.stateful = stateful;
  p.gc_spike_fraction = gc;
  return p;
}

}  // namespace

QuerySpec BuildQ1Sliding() {
  QuerySpec q;
  q.graph.set_name("q1-sliding");
  // Nexmark Q5: hot items — count bids per auction over a sliding window. The sliding
  // window writes every record into multiple overlapping panes, which is what makes it the
  // most I/O-intensive operator of the query (35 KB of state traffic per record including
  // RocksDB write amplification).
  OperatorId src = q.graph.AddOperator("source", OperatorKind::kSource,
                                       Profile(30, 0, 150, 1.0), /*parallelism=*/2);
  OperatorId map = q.graph.AddOperator("map", OperatorKind::kMap,
                                       Profile(40, 0, 150, 0.9), /*parallelism=*/5);
  OperatorId win = q.graph.AddOperator("sliding-window", OperatorKind::kSlidingWindow,
                                       Profile(120, 35000, 200, 0.05, /*stateful=*/true),
                                       /*parallelism=*/8);
  OperatorId sink = q.graph.AddOperator("sink", OperatorKind::kSink, Profile(10, 0, 0, 1.0),
                                        /*parallelism=*/1);
  q.graph.AddEdge(src, map, PartitionScheme::kRebalance);
  q.graph.AddEdge(map, win, PartitionScheme::kHash);
  q.graph.AddEdge(win, sink, PartitionScheme::kRebalance);
  q.source_rates[src] = 14000;
  return q;
}

QuerySpec BuildQ2Join() {
  QuerySpec q;
  q.graph.set_name("q2-join");
  // Nexmark Q8: monitor new users — tumbling window join of persons and auctions. The join
  // buffers both inputs in the state backend and scans them when the window fires.
  OperatorId src_p = q.graph.AddOperator("source-persons", OperatorKind::kSource,
                                         Profile(8, 0, 200, 1.0), 1);
  OperatorId src_a = q.graph.AddOperator("source-auctions", OperatorKind::kSource,
                                         Profile(8, 0, 160, 1.0), 1);
  OperatorId map_p = q.graph.AddOperator("map-persons", OperatorKind::kMap,
                                         Profile(20, 0, 180, 1.0), 1);
  OperatorId map_a = q.graph.AddOperator("map-auctions", OperatorKind::kMap,
                                         Profile(15, 0, 150, 0.6), 2);
  OperatorId join = q.graph.AddOperator(
      "window-join", OperatorKind::kTumblingWindowJoin,
      Profile(25, 2200, 250, 0.2, /*stateful=*/true), 4);
  q.graph.AddEdge(src_p, map_p, PartitionScheme::kRebalance);
  q.graph.AddEdge(src_a, map_a, PartitionScheme::kRebalance);
  q.graph.AddEdge(map_p, join, PartitionScheme::kHash);
  q.graph.AddEdge(map_a, join, PartitionScheme::kHash);
  q.source_rates[src_p] = 30000;
  q.source_rates[src_a] = 80000;
  return q;
}

QuerySpec BuildQ3Inf() {
  QuerySpec q;
  q.graph.set_name("q3-inf");
  // Image-processing + model-inference pipeline (Crayfish-style). Sources and the decode
  // stage move large records (images), so the query is network-intensive; inference is
  // compute-bound and triggers GC-induced CPU spikes (§3.3).
  OperatorId src = q.graph.AddOperator("source", OperatorKind::kSource,
                                       Profile(100, 0, 60000, 1.0), 3);
  OperatorId decode = q.graph.AddOperator("decode", OperatorKind::kMap,
                                          Profile(800, 0, 180000, 0.9), 5);
  OperatorId inf = q.graph.AddOperator("inference", OperatorKind::kInference,
                                       Profile(2000, 0, 1000, 1.0, false, 0.3), 4);
  OperatorId sink = q.graph.AddOperator("sink", OperatorKind::kSink, Profile(10, 0, 0, 1.0), 1);
  q.graph.AddEdge(src, decode, PartitionScheme::kRebalance);
  q.graph.AddEdge(decode, inf, PartitionScheme::kRebalance);
  q.graph.AddEdge(inf, sink, PartitionScheme::kRebalance);
  q.source_rates[src] = 1600;
  return q;
}

QuerySpec BuildQ4Join() {
  QuerySpec q;
  q.graph.set_name("q4-join");
  // Nexmark Q3: local item suggestions — filter persons, incrementally join with auctions
  // by seller. The incremental join keeps both relations in state.
  OperatorId src_a = q.graph.AddOperator("source-auctions", OperatorKind::kSource,
                                         Profile(8, 0, 160, 1.0), 2);
  OperatorId src_p = q.graph.AddOperator("source-persons", OperatorKind::kSource,
                                         Profile(8, 0, 200, 1.0), 1);
  OperatorId filter = q.graph.AddOperator("filter-persons", OperatorKind::kFilter,
                                          Profile(12, 0, 200, 0.3), 1);
  OperatorId join = q.graph.AddOperator(
      "incremental-join", OperatorKind::kIncrementalJoin,
      Profile(30, 8000, 220, 0.5, /*stateful=*/true), 6);
  OperatorId sink = q.graph.AddOperator("sink", OperatorKind::kSink, Profile(5, 0, 0, 1.0), 1);
  q.graph.AddEdge(src_a, join, PartitionScheme::kHash);
  q.graph.AddEdge(src_p, filter, PartitionScheme::kRebalance);
  q.graph.AddEdge(filter, join, PartitionScheme::kHash);
  q.graph.AddEdge(join, sink, PartitionScheme::kRebalance);
  q.source_rates[src_a] = 45000;
  q.source_rates[src_p] = 15000;
  return q;
}

QuerySpec BuildQ5Aggregate() {
  QuerySpec q;
  q.graph.set_name("q5-aggregate");
  // Nexmark Q6: average selling price by seller — stateful join of bids with auctions
  // followed by a stateful process function maintaining per-seller aggregates. Two
  // I/O-intensive operators make this the query with the widest placement-quality gap
  // in the paper's Figure 7 (up to 6x).
  OperatorId src_b = q.graph.AddOperator("source-bids", OperatorKind::kSource,
                                         Profile(8, 0, 150, 1.0), 2);
  OperatorId src_a = q.graph.AddOperator("source-auctions", OperatorKind::kSource,
                                         Profile(8, 0, 160, 1.0), 1);
  OperatorId join = q.graph.AddOperator("winning-bids-join", OperatorKind::kTumblingWindowJoin,
                                        Profile(35, 6000, 200, 0.4, /*stateful=*/true), 8);
  OperatorId process =
      q.graph.AddOperator("seller-average", OperatorKind::kProcessFunction,
                          Profile(50, 4000, 180, 0.5, /*stateful=*/true), 4);
  OperatorId sink = q.graph.AddOperator("sink", OperatorKind::kSink, Profile(5, 0, 0, 1.0), 1);
  q.graph.AddEdge(src_b, join, PartitionScheme::kHash);
  q.graph.AddEdge(src_a, join, PartitionScheme::kHash);
  q.graph.AddEdge(join, process, PartitionScheme::kHash);
  q.graph.AddEdge(process, sink, PartitionScheme::kRebalance);
  q.source_rates[src_b] = 35000;
  q.source_rates[src_a] = 5000;
  return q;
}

QuerySpec BuildQ6Session() {
  QuerySpec q;
  q.graph.set_name("q6-session");
  // Nexmark Q11: user sessions — session window over bids per bidder, potentially
  // accumulating large state while sessions stay open.
  OperatorId src = q.graph.AddOperator("source", OperatorKind::kSource,
                                       Profile(8, 0, 150, 1.0), 2);
  OperatorId map = q.graph.AddOperator("map", OperatorKind::kMap, Profile(15, 0, 150, 1.0), 2);
  OperatorId win = q.graph.AddOperator("session-window", OperatorKind::kSessionWindow,
                                       Profile(80, 12000, 300, 0.02, /*stateful=*/true), 8);
  OperatorId sink = q.graph.AddOperator("sink", OperatorKind::kSink, Profile(5, 0, 0, 1.0), 1);
  q.graph.AddEdge(src, map, PartitionScheme::kRebalance);
  q.graph.AddEdge(map, win, PartitionScheme::kHash);
  q.graph.AddEdge(win, sink, PartitionScheme::kRebalance);
  q.source_rates[src] = 25000;
  return q;
}

namespace {

// The one name table: paper order, short alias, graph name.
struct NamedQuery {
  const char* alias;
  const char* name;
  QuerySpec (*build)();
};
constexpr NamedQuery kQueries[] = {
    {"q1", "q1-sliding", BuildQ1Sliding},     {"q2", "q2-join", BuildQ2Join},
    {"q3", "q3-inf", BuildQ3Inf},             {"q4", "q4-join", BuildQ4Join},
    {"q5", "q5-aggregate", BuildQ5Aggregate}, {"q6", "q6-session", BuildQ6Session},
};

}  // namespace

std::vector<QuerySpec> BuildAllQueries() {
  std::vector<QuerySpec> all;
  for (const NamedQuery& q : kQueries) {
    all.push_back(q.build());
  }
  return all;
}

std::optional<QuerySpec> FindQueryByName(const std::string& name) {
  for (const NamedQuery& q : kQueries) {
    if (name == q.alias || name == q.name) {
      return q.build();
    }
  }
  return std::nullopt;
}

QuerySpec BuildQueryByName(const std::string& name) {
  std::optional<QuerySpec> q = FindQueryByName(name);
  CAPSYS_CHECK_MSG(q.has_value(), "unknown query: " + name);
  return *std::move(q);
}

}  // namespace capsys
