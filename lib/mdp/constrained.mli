(** Constrained average-cost CTMDP solving by price.

    The paper solves its per-subsystem blocks, coupled through one shared
    occupancy row, as one occupation-measure LP (Feinberg, reference [1]).
    The same optimum is found here by one scalar price on that row and
    policy iteration per block; the LP itself is the reference the verify
    harness checks this against ([Bufsize_verify.Lp_formulation]).  The
    answer is the LP's K-switching policy for K = 1 ({!Policy.t}): every
    block deterministic, at most one mixing two actions in one state. *)

type solved = {
  gain : float;  (** the block's long-run average cost *)
  usage : float;  (** the time average of extra 0 *)
  policy : Policy.t;  (** the block's K-switching policy *)
  stationary : Bufsize_numeric.Vec.t;  (** the stationary distribution of [policy] *)
}
(** One block of an answer. *)

type answer = {
  total_gain : float;  (** the blocks' gains summed *)
  components : solved array;  (** one per block, in block order *)
  total_usage : float;  (** the blocks' usages summed *)
  price : float;
      (** the shared bound's price, in gain per unit of usage: 0 when
          there is no bound or it is slack *)
  rounds : int;  (** breakpoint-search rounds *)
}

type outcome = Optimal of answer | Infeasible

val deterministic_solved : Ctmdp.t -> int array -> solved
(** [deterministic_solved m choice] is the answer block of the
    deterministic policy [choice]: one stationary solve of the induced
    chain ({!Policy.stationary}), and its gain and usage (extra 0) summed
    over the chosen actions — exactly the block {!solve_price} returns
    for a block it answers with that policy. *)

val solve_price :
  ?max_iter:int ->
  ?bound:float ->
  Ctmdp.t array ->
  outcome option
  * Bufsize_resilience.Resilience.diagnostic
  * Policy_iteration.line array option
(** [solve_price ~bound blocks] minimizes the summed gain of independent
    CTMDP blocks subject to one shared bound on the time-average sum of
    their extra 0 — the paper's joint LP with one [Le] shared row —
    without an LP:

    + {e slack test}: one policy iteration per block at price 0; when the
      summed usage is within [bound] (or there is no bound) that is the
      answer, at price 0;
    + {e breakpoint search}: otherwise a cutting-plane search on the
      concave, piecewise-linear dual
      [D(p) = sum_i min_pi (g_i + p u_i) - p bound], started from the
      price-0 policies and the least-usage policies (policy iteration on
      the extra alone, which also detects an infeasible bound).  Each
      round runs one policy iteration per block at the price where the
      two bracketing lines cross, warm-started from the block's previous
      {!Policy_iteration.line} — a block whose incumbent is still optimal
      costs one improvement sweep and no factorization — and the search
      stops when the new policy meets the lines' value within 1e-12
      relative.  Gains and usages on the search are the lines' [g_c] and
      [g_u]; no priced copy of a block is made;
    + {e one-state mix}: on the walk from one bracketing policy tuple to
      the other, one (block, state) switch at a time in a fixed order, a
      bisection finds a switch where usage crosses the bound; the two
      tuples around it, which must both price within 1e-9 relative of
      the dual value, are mixed with the weight [alpha] that meets the
      bound exactly, so the answer randomizes in at most one state
      (Feinberg's K-switching bound for K = 1).  The mixed block's π is
      [alpha pi_a + (1 - alpha) pi_b] — a one-state mix of occupation
      measures is exact — and its policy plays the other tuple's action
      in the switched state with that action's share of the state's
      occupation.

    Stationary distributions are solved for the returned tuples only:
    every block of the answer, and the one block of the other tuple that
    the mix combines.  Each block keeps one
    {!Policy_iteration.workspace} for the whole search, its slack test,
    rounds and walk.

    The third component holds the slack test's price-0 lines, block by
    block, whenever the slack test completed — also when the bound then
    binds, is infeasible, or a later step gives up; [None] when the
    solve gave up before the slack test finished.  Line [i] is what
    {!Policy_iteration.solve} at weights [(1., 0.)] from the first action
    returns on block [i], so
    {!deterministic_solved} of its choice is bitwise the unconstrained
    answer [solve_price [| block i |]] would give: callers that need the
    unconstrained optimum next to the constrained one reuse it instead of
    solving again.

    An infeasible bound is [Infeasible].  The solve runs as a
    {!Bufsize_resilience.Resilience.escalate} chain of one step under the
    ambient budget ({!Bufsize_resilience.Resilience.current_budget}),
    which is also checked between rounds.  When policy iteration does not
    converge within [max_iter] (default 1000), meets a multichain policy
    (a singular dense evaluation, here or on the mix's walk), the search
    hits 64 rounds, the mix fails or the budget runs out, the solve gives
    up: no outcome, and a [Failed] diagnostic whose reason says why.  A
    model on which some state is reached under every policy
    ({!Ctmdp.reached_under_every_policy}) — every bus model — is unichain,
    so neither policy iteration nor the mix meets a multichain policy on
    it.  Every block must have exactly one extra.  Counter:
    [constrained.price_rounds]; span: [ctmdp.price]. *)

val reported_mix : solved -> Policy.mix option
(** The block's mix as the K-switching report counts it: [None] also for
    a mix in a state of stationary mass at most 1e-7, or with an action
    of probability at most 1e-6. *)

val pp_switching : Ctmdp.t -> Format.formatter -> solved -> unit
(** The block's K-switching report: the number of randomized states
    ({!reported_mix}) against the bound K = 1, and the mixed state's two
    actions with their probabilities. *)
