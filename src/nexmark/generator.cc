#include "src/nexmark/generator.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/str.h"

namespace capsys {
namespace {

const char* const kFirstNames[] = {"peter", "paul",  "luke", "john",  "saul",
                                   "vicky", "kate",  "julie", "sarah", "deiter"};
const char* const kLastNames[] = {"shultz", "abrams", "spencer", "white", "bartels",
                                  "walton", "smith",  "jones",   "noris"};
const char* const kCities[] = {"phoenix", "seattle", "boston", "portland", "kent",
                               "bend",    "bellevue"};
const char* const kStates[] = {"az", "wa", "ma", "or", "id", "ca"};
const char* const kItems[] = {"rusty bike", "used laptop", "vintage lamp", "rare vinyl",
                              "old camera", "antique desk"};

// Standard Nexmark mix: of every 50 events, 1 person, 3 auctions and 46 bids.
constexpr int kPersonProportion = 1;
constexpr int kAuctionProportion = 3;
constexpr int kBidProportion = 46;

template <typename T, size_t N>
const T& Pick(Rng& rng, const T (&arr)[N]) {
  return arr[rng.NextBounded(N)];
}

}  // namespace

NexmarkGenerator::NexmarkGenerator(GeneratorConfig config)
    : config_(config), rng_(config.seed) {
  CAPSYS_CHECK(config_.events_per_second > 0);
}

Event NexmarkGenerator::Next() {
  int64_t slot = count_ % (kPersonProportion + kAuctionProportion + kBidProportion);
  time_ms_ += 1000.0 / config_.events_per_second;
  ++count_;

  Event e;
  e.timestamp_ms = static_cast<int64_t>(time_ms_);
  if (slot < kPersonProportion) {
    e.kind = Event::Kind::kPerson;
    e.payload = MakePerson();
  } else if (slot < kPersonProportion + kAuctionProportion) {
    e.kind = Event::Kind::kAuction;
    e.payload = MakeAuction();
  } else {
    e.kind = Event::Kind::kBid;
    e.payload = MakeBid();
  }
  std::visit([&e](auto& p) { p.timestamp_ms = e.timestamp_ms; }, e.payload);
  return e;
}

std::vector<Event> NexmarkGenerator::Take(int n) {
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    events.push_back(Next());
  }
  return events;
}

Person NexmarkGenerator::MakePerson() {
  Person p;
  p.id = next_person_id_++;
  p.name = std::string(Pick(rng_, kFirstNames)) + " " + Pick(rng_, kLastNames);
  p.email = Sprintf("%s@example.com", p.name.substr(0, p.name.find(' ')).c_str());
  p.city = Pick(rng_, kCities);
  p.state = Pick(rng_, kStates);
  return p;
}

Auction NexmarkGenerator::MakeAuction() {
  Auction a;
  a.id = next_auction_id_++;
  a.seller = rng_.UniformInt(1000, std::max<int64_t>(1000, next_person_id_ - 1));
  a.category = rng_.UniformInt(0, 9);
  a.initial_bid = rng_.UniformInt(1, 100);
  a.reserve = a.initial_bid + rng_.UniformInt(0, 200);
  a.expires_ms = static_cast<int64_t>(time_ms_) + rng_.UniformInt(10'000, 600'000);
  a.item_name = Pick(rng_, kItems);
  return a;
}

Bid NexmarkGenerator::MakeBid() {
  Bid b;
  int64_t max_auction = std::max<int64_t>(1000, next_auction_id_ - 1);
  if (config_.hot_bid_fraction > 0 && rng_.Bernoulli(config_.hot_bid_fraction)) {
    int64_t lo = std::max<int64_t>(1000, max_auction - config_.hot_auctions + 1);
    b.auction = rng_.UniformInt(lo, max_auction);
  } else {
    b.auction = rng_.UniformInt(1000, max_auction);
  }
  b.bidder = rng_.UniformInt(1000, std::max<int64_t>(1000, next_person_id_ - 1));
  b.price = rng_.UniformInt(1, 10'000);
  return b;
}

}  // namespace capsys
