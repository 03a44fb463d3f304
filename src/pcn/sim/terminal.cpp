#include "pcn/sim/terminal.hpp"

#include "pcn/common/error.hpp"

namespace pcn::sim {

Terminal::Terminal(TerminalId id, geometry::Cell start, double call_prob,
                   std::unique_ptr<MobilityModel> mobility,
                   std::unique_ptr<UpdatePolicy> update_policy)
    : id_(id),
      position_(start),
      call_prob_(call_prob),
      mobility_(std::move(mobility)),
      update_policy_(std::move(update_policy)) {
  PCN_EXPECT(call_prob >= 0.0 && call_prob < 1.0,
             "Terminal: call probability must lie in [0, 1)");
  PCN_EXPECT(mobility_ != nullptr, "Terminal: mobility model required");
  PCN_EXPECT(update_policy_ != nullptr, "Terminal: update policy required");
}

}  // namespace pcn::sim
