(** The oracle matrix: independent solution routes cross-checked on random
    instances (see DESIGN.md §6.1 for the full matrix and tolerances).

    - [simplex-cross]: dense tableau (the production engine) vs the
      reference sparse revised simplex ({!Simplex_revised}) on random LPs
      — same classification, same objective.
    - [mdp-gain]: occupation-measure LP (both engines) vs average-cost
      policy iteration vs small-discount value iteration on random
      unichain CTMDPs.
    - [sim-analytic]: M/M/1/K product form vs generator-based CTMC
      stationary solve vs closed forms vs replicated discrete-event
      simulation (confidence-interval aware).
    - [sizing-bounds]: joint vs separate sizing solves on random bridged
      architectures — bound ordering, budget conservation, repro
      round-trips.
    - [split-monolithic]: the split linear solution vs damped Newton and a
      Picard fixed point on the monolithic quadratic closure; exact
      agreement on the decoupled ([cross_fraction = 0]) boundary.
    - [warm-cold]: seeded iterative stationary solves vs their cold
      solves, cache-served sizing runs vs the cache-off run (bitwise),
      and near misses: after a warm run of a spec, the same spec with
      one client rate, client weight, service rate, κ or quantile one
      ulp off must miss the cache and match its own cache-off run
      bitwise.
    - [kron]: random SAN descriptors — Kronecker shuffle SpMV, transposed
      SpMV, diagonal, and adjointness vs the materialized joint generator
      to 1e-12, and the Kronecker-side stationary GMRES solve vs the
      dense GTH solve to 1e-8 (warm re-seeding must hold the fixed point
      to 1e-10).
    - [topo]: random mesh/torus NoC instances with shared-pool routers —
      dimension-order route lengths vs grid distances, per-edge transit
      folding vs the split's bridge clients, the DAMQ shared-pool LP never
      worse than the static partition at equal capacity, and a replicated
      DES of the sized allocation conserving offered traffic and
      responding monotonically to extra buffer space.
    - [chaos] ({!Chaos.oracle}): injected numeric faults (singular bases,
      degenerate pivots, rate underflow/overflow, reducible chains,
      expired budgets) must surface as structured
      [Degraded]/[Failed] diagnostics — never an uncaught exception, a
      NaN/Inf result, or a silently drifted [Ok] answer. *)

val all : Oracle.t list

val find : string -> Oracle.t option

val names : unit -> string list

val case_of_repro : string -> (Oracle.case, string) result
(** Reconstruct a runnable case from the contents of a [.repro] file
    written by {!Driver} (dispatching on its [# oracle:] header) — the
    replay half of [bufsize verify --replay]. *)
