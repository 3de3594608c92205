// Negative fixture for tools/lane_lint.py --self-test.
//
// A counter registered as a lane-sharded sum is declared as
// util::RelaxedCell. That is race-free, but every bump is then a locked
// read-modify-write on one cache line all lanes share — the contention the
// per-page network and VMD sums are sharded to avoid. The registered type
// is the contract, so this fails like a plain integer.
//
// Never compiled — parsed only by the lint's self-test.
// lane-lint-expect: LL004
// lane-lint-registry: FixtureServer::pages_ LaneSums

namespace fx {

class FixtureServer {
 private:
  // BAD: shared atomic instead of per-lane rows.
  util::RelaxedCell<std::uint64_t> pages_;
};

}  // namespace fx
