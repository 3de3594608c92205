// Positive fixture for tools/lane_lint.py --self-test.
//
// A counter registered as a lane-sharded sum (the registry directive below
// mirrors the LaneSums entries of the REGISTRY table in lane_lint.py) is
// declared with util::LaneSums, as network.hpp and vmd.hpp do. The rule
// must accept it: the fixture expects no finding at all.
//
// Never compiled — parsed only by the lint's self-test.
// lane-lint-expect: none
// lane-lint-registry: FixtureFabric::background_ LaneSums

namespace fx {

class FixtureFabric {
 private:
  // GOOD: one single-writer row per lane, summed after the barrier.
  util::LaneSums<std::int64_t> background_;
};

}  // namespace fx
