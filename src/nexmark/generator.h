// Deterministic Nexmark event generator. Follows the standard Nexmark proportions
// (1 person : 3 auctions : 46 bids per 50 events) with monotonically increasing event
// timestamps at a configurable rate.
#ifndef SRC_NEXMARK_GENERATOR_H_
#define SRC_NEXMARK_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/nexmark/events.h"

namespace capsys {

struct GeneratorConfig {
  uint64_t seed = 42;
  double events_per_second = 1000.0;
  // Hot-key skew: fraction of bids that target one of the `hot_auctions` most recent
  // auctions. 0 disables skew.
  double hot_bid_fraction = 0.0;
  int hot_auctions = 4;
};

class NexmarkGenerator {
 public:
  explicit NexmarkGenerator(GeneratorConfig config = {});

  // Produces the next event, advancing the virtual clock by 1/events_per_second.
  Event Next();

  // Produces `n` consecutive events.
  std::vector<Event> Take(int n);

  int64_t next_person_id() const { return next_person_id_; }
  int64_t next_auction_id() const { return next_auction_id_; }
  int64_t events_generated() const { return count_; }

 private:
  Person MakePerson();
  Auction MakeAuction();
  Bid MakeBid();

  GeneratorConfig config_;
  Rng rng_;
  int64_t count_ = 0;
  int64_t next_person_id_ = 1000;
  int64_t next_auction_id_ = 1000;
  double time_ms_ = 0.0;
};

}  // namespace capsys

#endif  // SRC_NEXMARK_GENERATOR_H_
