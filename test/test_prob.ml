(* Tests for the probability substrate: RNG determinism and moments, CTMC
   stationary analysis (the validated escalation chain behind
   [Ctmc.stationary]), birth-death closed forms. *)

module Vec = Bufsize_numeric.Vec
module Rng = Bufsize_prob.Rng
module Ctmc = Bufsize_prob.Ctmc
module Birth_death = Bufsize_prob.Birth_death
module Resilience = Bufsize_resilience.Resilience

(* Naive substring scan. *)
let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

let check_float = Alcotest.(check (float 1e-9))
let check_close tol = Alcotest.(check (float tol))

(* ------------------------------------------------------------------ Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different streams" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_float_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let u = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (u >= 0. && u < 1.)
  done

let test_rng_uniform_mean () =
  let rng = Rng.create 12345 in
  let n = 100_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.float rng
  done;
  check_close 0.01 "mean ~ 0.5" 0.5 (!acc /. float_of_int n)

let test_rng_exponential_mean () =
  let rng = Rng.create 99 in
  let n = 100_000 and rate = 2.5 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential rng ~rate
  done;
  check_close 0.01 "mean ~ 1/rate" (1. /. rate) (!acc /. float_of_int n)

let test_rng_poisson_mean () =
  let rng = Rng.create 4242 in
  let check_mean mean =
    let n = 50_000 in
    let acc = ref 0 in
    for _ = 1 to n do
      acc := !acc + Rng.poisson rng ~mean
    done;
    check_close (0.05 *. (mean +. 1.)) "poisson mean" mean (float_of_int !acc /. float_of_int n)
  in
  check_mean 0.5;
  check_mean 5.;
  check_mean 80.

let test_rng_discrete () =
  let rng = Rng.create 31415 in
  let counts = Array.make 3 0 in
  let weights = [| 1.; 2.; 7. |] in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.discrete rng weights in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i w ->
      check_close 0.01 "frequency matches weight" (w /. 10.)
        (float_of_int counts.(i) /. float_of_int n))
    weights

let test_rng_int_bounds () =
  let rng = Rng.create 8 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "0..6" true (v >= 0 && v < 7)
  done

let test_rng_split_independence () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  (* Streams must differ and both be usable. *)
  Alcotest.(check bool) "distinct" true (Rng.bits64 parent <> Rng.bits64 child)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 77 in
  let a = Array.init 20 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 (fun i -> i)) sorted

(* ----------------------------------------------------------------- Ctmc *)

let two_state_ctmc a b = Ctmc.of_rates 2 [ (0, 1, a); (1, 0, b) ]

let test_ctmc_two_state_stationary () =
  (* pi = (b, a) / (a + b). *)
  let c = two_state_ctmc 2. 3. in
  let pi = Ctmc.stationary c in
  check_float "pi0" 0.6 pi.(0);
  check_float "pi1" 0.4 pi.(1)

let test_ctmc_of_generator_roundtrip () =
  let c = two_state_ctmc 1. 4. in
  let c2 = Ctmc.of_generator (Ctmc.generator c) in
  Alcotest.(check bool) "same stationary" true
    (Vec.approx_equal (Ctmc.stationary c) (Ctmc.stationary c2))

let test_ctmc_validation () =
  Alcotest.check_raises "self loop" (Invalid_argument "Ctmc.of_rates: self loop") (fun () ->
      ignore (Ctmc.of_rates 2 [ (0, 0, 1.) ]));
  Alcotest.check_raises "negative" (Invalid_argument "Ctmc.of_rates: negative rate") (fun () ->
      ignore (Ctmc.of_rates 2 [ (0, 1, -1.) ]))

let test_ctmc_irreducible () =
  Alcotest.(check bool) "two-state loop" true (Ctmc.is_irreducible (two_state_ctmc 1. 1.));
  let absorbing = Ctmc.of_rates 2 [ (0, 1, 1.) ] in
  Alcotest.(check bool) "absorbing not irreducible" false (Ctmc.is_irreducible absorbing)

let two_cycles = [ (0, 1, 1.); (1, 0, 1.); (2, 3, 1.); (3, 2, 1.) ]

(* [Ctmc.stationary] is the chain's answer, degraded included: on a
   reducible chain it returns bitwise what [stationary_diag] surfaces. *)
let test_stationary_is_the_chain () =
  let t = Ctmc.of_rates 4 two_cycles in
  let pi, d = Ctmc.stationary_diag t in
  Alcotest.(check bool) "degraded, not failed" true
    (match d.Resilience.status with Resilience.Degraded _ -> true | _ -> false);
  match pi with
  | None -> Alcotest.fail "reducible chain left without an answer"
  | Some v ->
      let bits = Array.map Int64.bits_of_float in
      Alcotest.(check bool) "bitwise the chain's answer" true
        (bits (Ctmc.stationary t) = bits v)

(* The chain reads the ambient budget: once it has run out, no step runs,
   [stationary_diag] fails naming the budget and [stationary] raises
   [Failure] with that reason. *)
let test_stationary_reads_ambient_budget () =
  let t = Ctmc.of_rates 2 [ (0, 1, 1.); (1, 0, 2.) ] in
  Resilience.with_ambient_budget (Resilience.expired ()) (fun () ->
      let pi, d = Ctmc.stationary_diag t in
      Alcotest.(check bool) "no answer" true (pi = None);
      let reason = Option.value ~default:"" (Resilience.status_reason d.Resilience.status) in
      Alcotest.(check bool) ("reason names the budget: " ^ reason) true
        (contains_sub reason "budget");
      match Ctmc.stationary t with
      | _ -> Alcotest.fail "stationary answered under an expired budget"
      | exception Failure msg ->
          Alcotest.(check bool) ("failure carries the reason: " ^ msg) true
            (contains_sub msg reason))

(* Steps run as [ctmc.stationary:<step>] spans.  Up to the dense threshold
   a clean chain stops at GTH; above it GMRES is the only step, so no
   n x n matrix is built there. *)
let test_stationary_steps () =
  let module Obs = Bufsize_obs.Obs in
  let steps n =
    let ring =
      Ctmc.of_rates n (List.init n (fun i -> (i, (i + 1) mod n, 1. +. float_of_int (i mod 3))))
    in
    let _, spans, _ = Obs.with_capture (fun () -> Ctmc.stationary ring) in
    List.filter_map
      (fun s ->
        let name = s.Obs.sname and stem = "ctmc.stationary:" in
        let k = String.length stem in
        if String.length name > k && String.sub name 0 k = stem then
          Some (String.sub name k (String.length name - k))
        else None)
      spans
  in
  Alcotest.(check (list string)) "small chain" [ "gth" ] (steps 8);
  Alcotest.(check (list string)) "above the dense threshold" [ "gmres-iterative" ] (steps 600)

let test_ctmc_stationary_property () =
  (* Property: on random irreducible 3-5 state chains, pi Q = 0. *)
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* n = int_range 3 5 in
        let* rates = array_size (return (n * n)) (float_range 0.1 5.) in
        return (n, rates))
  in
  let prop (n, rates) =
    let triples = ref [] in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then triples := (i, j, rates.((i * n) + j)) :: !triples
      done
    done;
    let c = Ctmc.of_rates n !triples in
    let pi = Ctmc.stationary c in
    let q = Ctmc.generator c in
    let residual = Bufsize_numeric.Mat.mul_vec (Bufsize_numeric.Mat.transpose q) pi in
    Vec.norm_inf residual < 1e-8 && Float.abs (Vec.sum pi -. 1.) < 1e-9
  in
  QCheck.Test.check_exn (QCheck.Test.make ~count:200 ~name:"pi Q = 0" gen prop)

(* The dense GTH elimination as it stood before the zero-skipping one:
   every row sum, division, update and π term over the whole leading
   block.  Kept as the reference the production loop must match bit for
   bit. *)
let gth_dense_reference c =
  let n = Ctmc.dim c in
  if n = 1 then Ok [| 1. |]
  else begin
    let w = Array.init n (fun i -> Array.init n (fun j -> if i = j then 0. else Ctmc.rate c i j)) in
    let exception Reducible of int in
    try
      for k = n - 1 downto 1 do
        let s = ref 0. in
        for j = 0 to k - 1 do
          s := !s +. w.(k).(j)
        done;
        if !s <= 0. then raise (Reducible k);
        for i = 0 to k - 1 do
          w.(i).(k) <- w.(i).(k) /. !s
        done;
        for i = 0 to k - 1 do
          let wik = w.(i).(k) in
          if wik <> 0. then
            for j = 0 to k - 1 do
              if j <> i then w.(i).(j) <- w.(i).(j) +. (wik *. w.(k).(j))
            done
        done
      done;
      let pi = Array.make n 0. in
      pi.(0) <- 1.;
      for k = 1 to n - 1 do
        let acc = ref 0. in
        for i = 0 to k - 1 do
          acc := !acc +. (pi.(i) *. w.(i).(k))
        done;
        pi.(k) <- acc.contents
      done;
      let total = Vec.sum pi in
      Ok (Array.map (fun p -> p /. total) pi)
    with Reducible k -> Error (`Reducible_class (Ctmc.communicating_class c k))
  end

let test_gth_sparse_matches_dense () =
  (* Random irreducible chains (a cycle through every state plus sparse
     random edges, so most entries are zero) with rates spread over
     1e-300 .. 1e300: overflowing row sums and multipliers, and
     underflowing quotients, all occur. *)
  let gen =
    QCheck.make
      ~print:(fun (n, edges) ->
        Printf.sprintf "n=%d %s" n
          (String.concat " "
             (List.map (fun (i, j, r) -> Printf.sprintf "%d>%d:%h" i j r) edges)))
      QCheck.Gen.(
        let* n = int_range 2 40 in
        let* density = float_range 0.02 0.4 in
        let rate =
          map2
            (fun m e -> m *. (10. ** float_of_int e))
            (float_range 1. 10.) (int_range (-300) 299)
        in
        let* cycle = list_repeat n rate in
        let* extra = list_repeat (n * n) (pair (float_bound_exclusive 1.) rate) in
        let cycle = List.mapi (fun i r -> (i, (i + 1) mod n, r)) cycle in
        let extra =
          List.concat
            (List.mapi
               (fun idx (u, r) ->
                 let i = idx / n and j = idx mod n in
                 if i <> j && j <> (i + 1) mod n && u < density then [ (i, j, r) ] else [])
               extra)
        in
        return (n, cycle @ extra))
  in
  let bits_equal a b =
    Array.length a = Array.length b
    && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b
  in
  let prop (n, edges) =
    let c = Ctmc.of_rates n edges in
    match (Ctmc.stationary_gth c, gth_dense_reference c) with
    | Ok a, Ok b -> bits_equal a b
    | Error (`Reducible_class x), Error (`Reducible_class y) -> x = y
    | _ -> false
  in
  (* π.(1) overflows to infinity and π.(2)'s sum has a zero term from
     state 1: the π pass must then run dense (inf *. 0. is NaN). *)
  Alcotest.(check bool)
    "overflowing pi entry" true
    (prop (3, [ (0, 1, 1e300); (1, 0, 1e-300); (0, 2, 1.); (2, 0, 1.) ]));
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"gth skips zeros, bit for bit" gen prop)

(* ----------------------------------------------------- Birth-death / MM1K *)

let test_bd_stationary_matches_ctmc () =
  let bd = Birth_death.mm1k ~lambda:2. ~mu:3. ~k:5 in
  let direct = Birth_death.stationary bd in
  let via_ctmc = Ctmc.stationary (Birth_death.to_ctmc bd) in
  Alcotest.(check bool) "product form = LU solve" true
    (Vec.approx_equal ~tol:1e-9 direct via_ctmc)

let test_mm1k_blocking_formula () =
  (* For rho <> 1: P_K = (1-rho) rho^K / (1 - rho^{K+1}). *)
  let lambda = 2. and mu = 3. in
  let k = 4 in
  let rho = lambda /. mu in
  let expected = (1. -. rho) *. (rho ** float_of_int k) /. (1. -. (rho ** float_of_int (k + 1))) in
  check_float "blocking closed form" expected
    (Birth_death.Mm1k.blocking_probability ~lambda ~mu ~k)

let test_mm1k_balanced_load () =
  (* rho = 1: uniform distribution, blocking = 1/(K+1). *)
  check_float "balanced blocking" (1. /. 6.)
    (Birth_death.Mm1k.blocking_probability ~lambda:2. ~mu:2. ~k:5)

let test_mm1k_throughput_conservation () =
  let lambda = 4. and mu = 3. in
  let k = 6 in
  let loss = Birth_death.Mm1k.loss_rate ~lambda ~mu ~k in
  let thru = Birth_death.Mm1k.throughput ~lambda ~mu ~k in
  check_float "lambda = loss + throughput" lambda (loss +. thru)

let test_mm1k_blocking_decreases_with_k () =
  let lambda = 2. and mu = 2.5 in
  let prev = ref 1. in
  for k = 1 to 12 do
    let b = Birth_death.Mm1k.blocking_probability ~lambda ~mu ~k in
    Alcotest.(check bool) "monotone decreasing" true (b < !prev);
    prev := b
  done

let test_mm1k_little_law () =
  let lambda = 1.5 and mu = 2. in
  let k = 5 in
  let n = Birth_death.Mm1k.mean_customers ~lambda ~mu ~k in
  let w = Birth_death.Mm1k.mean_sojourn ~lambda ~mu ~k in
  let thru = Birth_death.Mm1k.throughput ~lambda ~mu ~k in
  check_float "L = lambda_eff W" n (thru *. w)

let () =
  Alcotest.run "prob"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "float in range" `Quick test_rng_float_range;
          Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "poisson mean" `Quick test_rng_poisson_mean;
          Alcotest.test_case "discrete frequencies" `Quick test_rng_discrete;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "ctmc",
        [
          Alcotest.test_case "two-state stationary" `Quick test_ctmc_two_state_stationary;
          Alcotest.test_case "generator roundtrip" `Quick test_ctmc_of_generator_roundtrip;
          Alcotest.test_case "validation" `Quick test_ctmc_validation;
          Alcotest.test_case "irreducibility" `Quick test_ctmc_irreducible;
          Alcotest.test_case "stationary is the chain's answer" `Quick
            test_stationary_is_the_chain;
          Alcotest.test_case "ambient budget reaches the chain" `Quick
            test_stationary_reads_ambient_budget;
          Alcotest.test_case "step spans, gmres alone above 512" `Quick test_stationary_steps;
          Alcotest.test_case "pi Q = 0 (property)" `Quick test_ctmc_stationary_property;
          Alcotest.test_case "gth sparse = dense loop, bit for bit (property)" `Quick
            test_gth_sparse_matches_dense;
        ] );
      ( "birth-death",
        [
          Alcotest.test_case "product form = LU" `Quick test_bd_stationary_matches_ctmc;
          Alcotest.test_case "MM1K blocking closed form" `Quick test_mm1k_blocking_formula;
          Alcotest.test_case "MM1K balanced load" `Quick test_mm1k_balanced_load;
          Alcotest.test_case "flow conservation" `Quick test_mm1k_throughput_conservation;
          Alcotest.test_case "blocking monotone in K" `Quick test_mm1k_blocking_decreases_with_k;
          Alcotest.test_case "Little's law" `Quick test_mm1k_little_law;
        ] );
    ]
