// Negative fixture for tools/lane_lint.py --self-test.
//
// A counter registered as a lane-sharded sum is declared as a plain integer
// instead of util::LaneSums. Every lane would bump the same unsynchronized
// member: a data race, and the lint must say so.
//
// Never compiled — parsed only by the lint's self-test.
// lane-lint-expect: LL004
// lane-lint-registry: FixtureServer::pages_ LaneSums

namespace fx {

class FixtureServer {
 private:
  // BAD: bumped from every lane, but not lane-sharded.
  std::int64_t pages_ = 0;
};

}  // namespace fx
