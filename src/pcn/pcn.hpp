// Umbrella header: the whole public API of libpcn.
//
// Most consumers only need a subset; prefer the per-module headers in
// production code and keep this for exploration and small tools.
#pragma once

#include "pcn/common/error.hpp"
#include "pcn/common/params.hpp"
#include "pcn/common/shard_pool.hpp"

#include "pcn/geometry/cell.hpp"
#include "pcn/geometry/hex.hpp"
#include "pcn/geometry/la_tiling.hpp"
#include "pcn/geometry/line.hpp"
#include "pcn/geometry/ring_metrics.hpp"
#include "pcn/geometry/spiral.hpp"

#include "pcn/linalg/lu.hpp"
#include "pcn/linalg/matrix.hpp"
#include "pcn/linalg/tridiagonal.hpp"

#include "pcn/markov/chain_spec.hpp"
#include "pcn/markov/closed_form.hpp"
#include "pcn/markov/renewal.hpp"
#include "pcn/markov/steady_state.hpp"
#include "pcn/markov/transient.hpp"

#include "pcn/costs/cost_model.hpp"
#include "pcn/costs/partition.hpp"

#include "pcn/optimize/annealing.hpp"
#include "pcn/optimize/exhaustive.hpp"
#include "pcn/optimize/near_optimal.hpp"
#include "pcn/optimize/result.hpp"

#include "pcn/stats/histogram.hpp"
#include "pcn/stats/rng.hpp"
#include "pcn/stats/summary.hpp"

#include "pcn/obs/bench_report.hpp"
#include "pcn/obs/json.hpp"
#include "pcn/obs/metrics.hpp"
#include "pcn/obs/report.hpp"
#include "pcn/obs/timer.hpp"

#include "pcn/proto/messages.hpp"
#include "pcn/proto/wire.hpp"

#include "pcn/sim/location_server.hpp"
#include "pcn/sim/metrics.hpp"
#include "pcn/sim/mobility.hpp"
#include "pcn/sim/network.hpp"
#include "pcn/sim/paging_policy.hpp"
#include "pcn/sim/sim_time.hpp"
#include "pcn/sim/terminal.hpp"
#include "pcn/sim/update_policy.hpp"

#include "pcn/trace/scripted_mobility.hpp"

#include "pcn/baselines/baseline_models.hpp"

#include "pcn/capacity/paging_capacity.hpp"

#include "pcn/cli/args.hpp"

#include "pcn/core/adaptive.hpp"
#include "pcn/core/location_manager.hpp"
