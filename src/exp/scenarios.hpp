// scenarios.hpp — the built-in scenario catalogue.
//
// Each scenarios_*.cpp translation unit registers its workloads through
// static ScenarioRegistrar objects. Because libsmn is a static archive,
// an object file whose only content is a static initializer would be
// dropped by the linker; register_builtin_scenarios() references an anchor
// symbol in every scenario TU, forcing them all into the final binary (and
// with them, their registrars). Call it once at the top of main() — it is
// idempotent and cheap.
//
// Built-in scenarios, with the experiment id (E1..E23) of the claims they
// reproduce; docs/experiments.md maps each id to its command and test:
//   grid_broadcast      — the paper's main process, T_B on the √n×√n grid;
//                         also sweeps the walk kernel and metric (E1, E2,
//                         E4, E15, E20)
//   frog_broadcast      — Frog model (Sec. 4): only informed agents move (E11)
//   torus_broadcast     — boundary ablation: same process on the torus (E20)
//   percolation_radius  — T_B vs r/r_c across the percolation boundary (E3)
//   gossip              — k rumors all-to-all (Corollary 2, E5)
//   meeting_time        — pairwise first-meeting times (t* of Sec. 1.1, E21)
//   meeting_probability — two walks meet in the lens within d² (Lemma 3, E6)
//   hitting_probability — one walk hits a node within d² (Lemma 1, E7)
//   walk_range          — range and displacement of one walk (Lemma 2, E8)
//   islands             — island sizes below the percolation point (Lemma 6, E9)
//   percolation         — components of one uniform placement vs r/r_c (E10)
//   coverage            — coverage time T_C vs T_B (Sec. 4, E12)
//   cover_time          — cover time of k independent walks (Sec. 4, E13)
//   predator_prey       — prey extinction time vs k predators (Sec. 4, E14)
//   dense_baseline      — dense-regime Θ(√n/R) baseline of [7] (E16)
//   frontier            — informed-frontier speed (Lemma 7, E17)
//   barriers            — broadcast across a walled grid (extension, E19)
//   cell_spread         — the proof's cell wavefront (Lemmas 4–5, E22)
//   churn               — broadcast under agent replacement (extension, E23)
#pragma once

namespace smn::exp {

/// Forces every built-in scenario translation unit to be linked (and thus
/// registered). Safe to call more than once.
void register_builtin_scenarios();

// Anchor symbols, one per scenario translation unit.
void link_scenarios_broadcast();
void link_scenarios_gossip();
void link_scenarios_walk();
void link_scenarios_churn();
void link_scenarios_models();
void link_scenarios_graph();

}  // namespace smn::exp
