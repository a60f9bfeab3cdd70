// smn.hpp — umbrella header for libsmn.
//
// Pulls in the full public API. Fine for applications and examples;
// library code should include the specific module headers it uses.
//
//   #include "smn.hpp"
//   smn::core::EngineConfig cfg;           // configure the paper's model
//   auto res = smn::core::run_broadcast(cfg);
#pragma once

// Substrates
#include "grid/grid.hpp"            // G_n, Torus2D
#include "grid/obstacle_grid.hpp"   // mobility-barrier domains (Sec. 4 future work)
#include "grid/point.hpp"           // Point + metrics (Manhattan = paper's)
#include "grid/tessellation.hpp"    // ℓ×ℓ cells of the Sec. 3.1 argument
#include "rng/rng.hpp"              // deterministic randomness
#include "walk/diffusion.hpp"       // MSD / kernel diffusion constants
#include "walk/ensemble.hpp"        // k synchronized agents
#include "walk/meeting.hpp"         // Lemma 1 / Lemma 3 probes
#include "walk/meeting_time.hpp"    // first-meeting times (t* of [10])
#include "walk/step.hpp"            // the lazy 1/5 kernel (+ ablations)
#include "walk/tracker.hpp"         // range & displacement (Lemma 2)

// Visibility graph
#include "graph/dsu.hpp"
#include "graph/percolation.hpp"    // r_c, γ, regimes
#include "graph/visibility.hpp"     // components of G_t(r)
#include "spatial/bucket_index.hpp"
#include "spatial/occupancy.hpp"

// The paper's contribution
#include "core/bounds.hpp"          // every closed-form bound
#include "core/broadcast.hpp"       // run_broadcast
#include "core/cell_observer.hpp"   // tessellation wavefront (Sec. 3.1)
#include "core/epidemic.hpp"        // milestones over informed-count series
#include "core/engine.hpp"          // BroadcastProcess + observers hook
#include "core/gossip.hpp"          // run_gossip (Corollary 2)
#include "core/observers.hpp"       // frontier, coverage, islands, counts
#include "core/rumor.hpp"

// Related models (Sec. 4 and baselines)
#include "models/barrier.hpp"       // broadcast across mobility barriers
#include "models/churn.hpp"         // broadcast under agent churn
#include "models/coverage.hpp"      // T_C and k-walk cover time
#include "models/dense_markov.hpp"  // Clementi et al. [7, 8] baseline
#include "models/frog.hpp"          // Frog model
#include "models/predator_prey.hpp"
#include "models/torus_broadcast.hpp"  // boundary-effect ablation

// Visualization
#include "viz/ascii.hpp"

// Experiment support
#include "sim/args.hpp"
#include "sim/runner.hpp"
#include "stats/regression.hpp"
#include "stats/running_stats.hpp"
#include "stats/table.hpp"
