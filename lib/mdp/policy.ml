module Vec = Bufsize_numeric.Vec
module Sparse = Bufsize_numeric.Sparse
module Ctmc = Bufsize_prob.Ctmc
module Rng = Bufsize_prob.Rng

type t = { probs : float array array }

let deterministic m choice =
  if Array.length choice <> Ctmdp.num_states m then
    invalid_arg "Policy.deterministic: choice length mismatch";
  let probs =
    Array.mapi
      (fun s a ->
        let k = Ctmdp.num_actions m s in
        if a < 0 || a >= k then
          invalid_arg (Printf.sprintf "Policy.deterministic: action %d out of range in state %d" a s);
        Array.init k (fun i -> if i = a then 1. else 0.))
      choice
  in
  { probs }

let randomized m probs =
  if Array.length probs <> Ctmdp.num_states m then
    invalid_arg "Policy.randomized: row count mismatch";
  let probs =
    Array.mapi
      (fun s row ->
        if Array.length row <> Ctmdp.num_actions m s then
          invalid_arg (Printf.sprintf "Policy.randomized: row %d length mismatch" s);
        Array.iter (fun p -> if p < -1e-12 then invalid_arg "Policy.randomized: negative probability") row;
        let total = Array.fold_left ( +. ) 0. row in
        if Float.abs (total -. 1.) > 1e-6 then
          invalid_arg (Printf.sprintf "Policy.randomized: row %d sums to %g" s total);
        Array.map (fun p -> Float.max 0. p /. total) row)
      probs
  in
  { probs }

let uniform m =
  let probs =
    Array.init (Ctmdp.num_states m) (fun s ->
        let k = Ctmdp.num_actions m s in
        Array.make k (1. /. float_of_int k))
  in
  { probs }

let prob p s a = p.probs.(s).(a)
let action_probs p s = Array.copy p.probs.(s)

let chooses p choice =
  Array.length choice = Array.length p.probs
  && Array.for_all2 (fun row a -> a >= 0 && a < Array.length row && row.(a) = 1.) p.probs choice

let is_deterministic ?(tol = 1e-9) p =
  Array.for_all
    (fun row -> Array.exists (fun x -> Float.abs (x -. 1.) <= tol) row)
    p.probs

let randomized_states ?(tol = 1e-9) p =
  let result = ref [] in
  Array.iteri
    (fun s row ->
      let supported = Array.fold_left (fun acc x -> if x > tol then acc + 1 else acc) 0 row in
      if supported > 1 then result := s :: !result)
    p.probs;
  List.rev !result

(* The chain of a policy, straight from the flat arrays: row [s] holds
   prob(a|s) * rate for the transitions of each action with positive
   probability.  Each row's entries are laid down in reverse (action,
   transition) order, the order in which duplicate targets have always
   been accumulated, so every rate — and every pinned result — stays
   bitwise. *)
let induced_ctmc m p =
  let n = Ctmdp.num_states m in
  let first_action = m.Ctmdp.first_action and first = m.Ctmdp.first_transition in
  let row_ptr = Array.make (n + 1) 0 in
  for s = 0 to n - 1 do
    let count = ref 0 in
    Array.iteri
      (fun a pa ->
        let i = first_action.(s) + a in
        if pa > 0. then count := !count + first.(i + 1) - first.(i))
      p.probs.(s);
    row_ptr.(s + 1) <- row_ptr.(s) + !count
  done;
  let col_idx = Array.make row_ptr.(n) 0 and values = Array.make row_ptr.(n) 0. in
  let k = ref 0 in
  for s = 0 to n - 1 do
    let row = p.probs.(s) in
    for a = Array.length row - 1 downto 0 do
      let pa = row.(a) and i = first_action.(s) + a in
      if pa > 0. then
        for t = first.(i + 1) - 1 downto first.(i) do
          col_idx.(!k) <- m.Ctmdp.dst.(t);
          values.(!k) <- pa *. m.Ctmdp.rate.(t);
          incr k
        done
    done
  done;
  Ctmc.of_rate_matrix (Sparse.of_row_entries ~rows:n ~cols:n ~row_ptr ~col_idx ~values)

let stationary m p = Ctmc.stationary (induced_ctmc m p)

type evaluation = {
  gain : float;
  extras : float array;
  occupation : float array array;
  state_distribution : Vec.t;
}

let evaluate m p =
  let pi = stationary m p in
  let k = Ctmdp.num_extras m in
  let gain = ref 0. in
  let extras = Array.make k 0. in
  let occupation =
    Array.mapi
      (fun s row ->
        Array.mapi
          (fun a pa ->
            let x = pi.(s) *. pa in
            let i = m.Ctmdp.first_action.(s) + a in
            gain := !gain +. (x *. m.Ctmdp.cost.(i));
            for e = 0 to k - 1 do
              extras.(e) <- extras.(e) +. (x *. m.Ctmdp.extras.((i * k) + e))
            done;
            x)
          row)
      p.probs
  in
  { gain = !gain; extras; occupation; state_distribution = pi }

let of_occupation m x =
  if Array.length x <> Ctmdp.num_states m then
    invalid_arg "Policy.of_occupation: row count mismatch";
  let probs =
    Array.mapi
      (fun s row ->
        let k = Ctmdp.num_actions m s in
        if Array.length row <> k then
          invalid_arg (Printf.sprintf "Policy.of_occupation: row %d length mismatch" s);
        let mass = Array.fold_left ( +. ) 0. row in
        if mass > 1e-12 then Array.map (fun v -> Float.max 0. v /. mass) row
        else Array.init k (fun i -> if i = 0 then 1. else 0.))
      x
  in
  { probs }

let sample_action rng p s = Rng.discrete rng p.probs.(s)
