(** Fault injection (chaos) for the resilient solve pipeline.

    Each case deterministically builds a numerically hazardous instance of
    one fault family — rank-deficient LP bases, near-tolerance pivots,
    rate underflow/overflow, reducible chains, expired wall-clock budgets
    — and asserts the resilience contract on [Ctmc.stationary], which
    production calls, and on the reference LP's [Lp.solve_diag]: no
    uncaught exception, no NaN/Inf in a surfaced result, metamorphic
    agreement with the clean instance when the diagnostic claims [Ok],
    and a [Degraded]/[Failed] diagnostic otherwise.  The CTMC cases also require [Ctmc.stationary]
    to return bitwise the answer of its chain, {!Bufsize_prob.Ctmc.stationary_diag}.

    Exposed both as the [chaos] oracle of [bufsize-verify] and as a
    library for the test-suite's exhaustive fault sweep. *)

type fault =
  | Singular_basis  (** duplicated LP rows: rank-deficient simplex bases *)
  | Degenerate_pivot  (** one row scaled to near the pivot tolerance *)
  | Rate_underflow  (** all CTMC rates scaled by 1e-150 *)
  | Rate_overflow  (** all CTMC rates scaled by 1e+140 *)
  | Reducible_chain  (** two disjoint closed communicating classes *)
  | Budget_exhaustion  (** an already-expired wall-clock budget *)

val all_faults : fault list

val fault_name : fault -> string
(** Kebab-case identifier used in repro headers and test labels. *)

val fault_of_name : string -> fault option

val check : fault -> int -> Oracle.verdict
(** [check fault seed] regenerates the seeded instance and runs its
    resilience assertions. *)

val case : fault:fault -> seed:int -> Oracle.case
(** The oracle-shaped case: a chaos instance is fully determined by
    [(fault, seed)], so its repro is just those two headers and it has no
    structural shrink. *)

val oracle : Oracle.t
(** The [chaos] entry of the oracle matrix: each generated case draws a
    fault family and a seed from the driver's RNG stream. *)
