module Sparse = Bufsize_numeric.Sparse
module Ctmc = Bufsize_prob.Ctmc
module Rng = Bufsize_prob.Rng

type mix = { state : int; action : int; weight : float }
type t = { choice : int array; mix : mix option }

(* [f a p] for each action [a] that state [s] plays, with its probability
   [p], highest action first. *)
let iter_played p s f =
  let c = p.choice.(s) in
  match p.mix with
  | Some { state; action; weight } when state = s ->
      if action > c then begin
        f action weight;
        f c (1. -. weight)
      end
      else begin
        f c (1. -. weight);
        f action weight
      end
  | _ -> f c 1.

(* The chain of a policy, straight from the flat arrays: row [s] holds
   prob(a|s) * rate for the transitions of each action played.  Each
   row's entries are laid down in reverse (action, transition) order, the
   order in which duplicate targets have always been accumulated, so
   every rate — and every pinned result — stays bitwise. *)
let induced_ctmc m p =
  let n = Ctmdp.num_states m in
  let first_action = m.Ctmdp.first_action and first = m.Ctmdp.first_transition in
  let row_ptr = Array.make (n + 1) 0 in
  for s = 0 to n - 1 do
    let count = ref 0 in
    iter_played p s (fun a _ ->
        let i = first_action.(s) + a in
        count := !count + first.(i + 1) - first.(i));
    row_ptr.(s + 1) <- row_ptr.(s) + !count
  done;
  let col_idx = Array.make row_ptr.(n) 0 and values = Array.make row_ptr.(n) 0. in
  let k = ref 0 in
  for s = 0 to n - 1 do
    iter_played p s (fun a pa ->
        let i = first_action.(s) + a in
        for t = first.(i + 1) - 1 downto first.(i) do
          col_idx.(!k) <- m.Ctmdp.dst.(t);
          values.(!k) <- pa *. m.Ctmdp.rate.(t);
          incr k
        done)
  done;
  Ctmc.of_rate_matrix (Sparse.of_row_entries ~rows:n ~cols:n ~row_ptr ~col_idx ~values)

let stationary m p = Ctmc.stationary (induced_ctmc m p)

let sample_action rng p s =
  let u = Rng.float rng in
  let c = p.choice.(s) in
  match p.mix with
  | Some { state; action; weight } when state = s ->
      if action < c then if u < weight then action else c
      else if u < 1. -. weight then c
      else action
  | _ -> c
