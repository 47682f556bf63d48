type t = {
  num_states : int;
  num_extras : int;
  first_action : int array;
  first_transition : int array;
  dst : int array;
  rate : float array;
  cost : float array;
  extras : float array;
  exit : float array;
  label : string array;
  state_label : int -> string;
}

(* Growable flat arrays, filled state by state.  [state] is the state
   being filled, [first] its first action, and [actions] the number of
   actions started so far. *)
type builder = {
  n : int;
  k : int;
  mutable state : int;
  mutable first : int;
  mutable actions : int;
  mutable transitions : int;
  mutable b_first_transition : int array;
  mutable b_dst : int array;
  mutable b_rate : float array;
  mutable b_cost : float array;
  mutable b_extras : float array;
  mutable b_label : string array;
}

(* A copy of [a]'s first [used] cells with room for [need]: at least
   double the length. *)
let grow a ~used ~need fill =
  let b = Array.make (Int.max need (2 * Array.length a)) fill in
  Array.blit a 0 b 0 used;
  b

let add_action b ~label ~cost ~extras =
  if Array.length extras <> b.k then
    invalid_arg
      (Printf.sprintf "Ctmdp.create: state %d action %S has %d extras, expected %d" b.state label
         (Array.length extras) b.k);
  let i = b.actions in
  if i + 1 >= Array.length b.b_first_transition then
    b.b_first_transition <- grow b.b_first_transition ~used:i ~need:(i + 2) 0;
  b.b_first_transition.(i) <- b.transitions;
  if i >= Array.length b.b_cost then begin
    b.b_cost <- grow b.b_cost ~used:i ~need:(i + 1) 0.;
    b.b_label <- grow b.b_label ~used:i ~need:(i + 1) ""
  end;
  b.b_cost.(i) <- cost;
  b.b_label.(i) <- label;
  if (i + 1) * b.k > Array.length b.b_extras then
    b.b_extras <- grow b.b_extras ~used:(i * b.k) ~need:((i + 1) * b.k) 0.;
  Array.blit extras 0 b.b_extras (i * b.k) b.k;
  b.actions <- i + 1

let add_transition b j r =
  if b.actions = b.first then invalid_arg "Ctmdp.add_transition: no action started";
  if j < 0 || j >= b.n then
    invalid_arg (Printf.sprintf "Ctmdp.create: transition to unknown state %d" j);
  if j = b.state then invalid_arg "Ctmdp.create: self loop transition";
  if r <= 0. then invalid_arg "Ctmdp.create: nonpositive rate";
  let p = b.transitions in
  if p >= Array.length b.b_dst then begin
    b.b_dst <- grow b.b_dst ~used:p ~need:(p + 1) 0;
    b.b_rate <- grow b.b_rate ~used:p ~need:(p + 1) 0.
  end;
  b.b_dst.(p) <- j;
  b.b_rate.(p) <- r;
  b.transitions <- p + 1

let create ?(state_label = string_of_int) ~num_extras n fill =
  if n <= 0 then invalid_arg "Ctmdp.create: no states";
  if num_extras < 0 then invalid_arg "Ctmdp.create: negative extras count";
  let cap = 4 * n in
  let b =
    {
      n;
      k = num_extras;
      state = 0;
      first = 0;
      actions = 0;
      transitions = 0;
      b_first_transition = Array.make (n + 1) 0;
      b_dst = Array.make cap 0;
      b_rate = Array.make cap 0.;
      b_cost = Array.make n 0.;
      b_extras = Array.make (n * num_extras) 0.;
      b_label = Array.make n "";
    }
  in
  let first_action = Array.make (n + 1) 0 in
  for s = 0 to n - 1 do
    b.state <- s;
    b.first <- b.actions;
    first_action.(s) <- b.actions;
    fill b s;
    if b.actions = b.first then
      invalid_arg (Printf.sprintf "Ctmdp.create: state %d has no action" s)
  done;
  let na = b.actions in
  first_action.(n) <- na;
  let first_transition = Array.sub b.b_first_transition 0 (na + 1) in
  first_transition.(na) <- b.transitions;
  let dst = Array.sub b.b_dst 0 b.transitions and rate = Array.sub b.b_rate 0 b.transitions in
  let exit =
    Array.init na (fun i ->
        let e = ref 0. in
        for p = first_transition.(i) to first_transition.(i + 1) - 1 do
          e := !e +. rate.(p)
        done;
        !e)
  in
  {
    num_states = n;
    num_extras;
    first_action;
    first_transition;
    dst;
    rate;
    cost = Array.sub b.b_cost 0 na;
    extras = Array.sub b.b_extras 0 (na * num_extras);
    exit;
    label = Array.sub b.b_label 0 na;
    state_label;
  }

let num_states t = t.num_states
let num_extras t = t.num_extras
let num_actions t s = t.first_action.(s + 1) - t.first_action.(s)
let total_state_actions t = t.first_action.(t.num_states)
let extra t i k = t.extras.((i * t.num_extras) + k)
let usage t i = if t.num_extras = 0 then 0. else t.extras.(i * t.num_extras)
let action_label t s a = t.label.(t.first_action.(s) + a)
let max_exit_rate t = Array.fold_left Float.max 0. t.exit

let cost_bounds t =
  let lo = ref infinity and hi = ref neg_infinity in
  Array.iter
    (fun c ->
      if c < !lo then lo := c;
      if c > !hi then hi := c)
    t.cost;
  (!lo, !hi)

let map_costs t f = { t with cost = Array.init (total_state_actions t) f }

let reached_under_every_policy t s0 =
  let n = t.num_states in
  if s0 < 0 || s0 >= n then invalid_arg "Ctmdp.reached_under_every_policy: no such state";
  let layer = Array.make n (-1) in
  layer.(s0) <- 0;
  (* Action [i] has a transition into a layer before [k]. *)
  let enters k i =
    let rec go p =
      p < t.first_transition.(i + 1)
      && ((layer.(t.dst.(p)) >= 0 && layer.(t.dst.(p)) < k) || go (p + 1))
    in
    go t.first_transition.(i)
  in
  let rec grow k joined =
    let added = ref 0 in
    for s = 0 to n - 1 do
      if layer.(s) < 0 then begin
        let all = ref true in
        for i = t.first_action.(s) to t.first_action.(s + 1) - 1 do
          all := !all && enters k i
        done;
        if !all then begin
          layer.(s) <- k;
          incr added
        end
      end
    done;
    if !added = 0 then joined = n else grow (k + 1) (joined + !added)
  in
  grow 1 1

let pp_summary ppf t =
  let lo, hi = cost_bounds t in
  Format.fprintf ppf "CTMDP: %d states, %d state-action pairs, %d extras, cost in [%.4g, %.4g]"
    t.num_states (total_state_actions t) t.num_extras lo hi
