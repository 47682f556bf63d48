(* Tests for the probability substrate: RNG determinism and moments, CTMC
   stationary analysis, birth-death closed forms. *)

module Vec = Bufsize_numeric.Vec
module Rng = Bufsize_prob.Rng
module Ctmc = Bufsize_prob.Ctmc
module Birth_death = Bufsize_prob.Birth_death

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

let test_ctmc_transient_converges () =
  let c = two_state_ctmc 2. 3. in
  let pi_inf = Ctmc.stationary c in
  let pt = Ctmc.transient c [| 1.; 0. |] 50. in
  Alcotest.(check bool) "transient -> stationary" true
    (Vec.approx_equal ~tol:1e-6 pt pi_inf)

let test_ctmc_transient_short_horizon () =
  (* Tiny horizon: nearly the initial distribution. *)
  let c = two_state_ctmc 2. 3. in
  let pt = Ctmc.transient c [| 1.; 0. |] 1e-6 in
  Alcotest.(check bool) "close to start" true (pt.(0) > 0.999)

let test_ctmc_uniformize_stochastic () =
  let c = two_state_ctmc 5. 1. in
  let p = Ctmc.uniformize c in
  for i = 0 to 1 do
    let s = ref 0. in
    for j = 0 to 1 do
      let x = Bufsize_numeric.Mat.get p i j in
      Alcotest.(check bool) "entry in [0,1]" true (x >= 0. && x <= 1.);
      s := !s +. x
    done;
    check_float "row sums to 1" 1. !s
  done

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
          Alcotest.test_case "transient converges" `Quick test_ctmc_transient_converges;
          Alcotest.test_case "transient short horizon" `Quick test_ctmc_transient_short_horizon;
          Alcotest.test_case "uniformization stochastic" `Quick test_ctmc_uniformize_stochastic;
          Alcotest.test_case "pi Q = 0 (property)" `Quick test_ctmc_stationary_property;
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
