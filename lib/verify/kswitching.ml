module Ctmdp = Bufsize_mdp.Ctmdp
module Constrained = Bufsize_mdp.Constrained

(* The number of rows of conditional action probabilities with more than
   one entry above [tol]. *)
let count ~tol rows =
  Seq.fold_left
    (fun acc probs ->
      let support = Array.fold_left (fun k pr -> if pr > tol then k + 1 else k) 0 probs in
      if support > 1 then acc + 1 else acc)
    0 rows

let analyze ?(tol = 1e-6) m p =
  count ~tol (Seq.map (Dense_policy.action_probs p) (Seq.init (Ctmdp.num_states m) Fun.id))

let of_occupation ?(tol = 1e-6) ?(mass_tol = 1e-9) x =
  count ~tol
    (Seq.filter_map
       (fun row ->
         let mass = Array.fold_left ( +. ) 0. row in
         if mass > mass_tol then Some (Array.map (fun v -> v /. mass) row) else None)
       (Array.to_seq x))

let check_answer m (s : Constrained.solved) =
  let e = Dense_policy.evaluate m (Dense_policy.of_policy m s.Constrained.policy) in
  let close x y = Float.abs (x -. y) <= 1e-9 *. (1. +. Float.abs y) in
  let randomized = of_occupation ~mass_tol:1e-7 e.Dense_policy.occupation in
  if not (close e.Dense_policy.gain s.Constrained.gain) then
    Error
      (Printf.sprintf "dense policy gain %.15g vs the answer's %.15g" e.Dense_policy.gain
         s.Constrained.gain)
  else if not (close e.Dense_policy.extras.(0) s.Constrained.usage) then
    Error
      (Printf.sprintf "dense policy usage %.15g vs the answer's %.15g" e.Dense_policy.extras.(0)
         s.Constrained.usage)
  else if randomized > 1 then Error (Printf.sprintf "%d randomized states (at most 1)" randomized)
  else Ok randomized
