module Obs = Bufsize_obs.Obs

let m_fallbacks = Obs.counter "stationary.fallbacks"

type report = {
  iterations : int;
  restarts : int;
  residual : float;
  fallback : bool;
  converged : bool;
}

(* The GMRES restart length m; 20 gave similar step counts. *)
let restart = 10

(* A cycle that keeps more than this share of the residual's 2-norm has
   stalled.  Restarted GMRES can stagnate for good on slowly mixing
   chains started far from equilibrium (a cold start of the bridged
   SAN at 5832 states: ratios 0.58, 0.985, then 1.000 for hundreds of
   cycles), while converging cycles on the same models stay below
   0.9. *)
let stall_ratio = 0.9

(* Divide by the sum; false when the sum or an entry is not finite. *)
let renormalize v =
  let total = Vec.sum v in
  if not (Float.is_finite total && total > 0.) then false
  else begin
    let ok = ref true in
    for i = 0 to Array.length v - 1 do
      let x = v.(i) /. total in
      if not (Float.is_finite x) then ok := false;
      v.(i) <- x
    done;
    !ok
  end

let seed ?init n =
  match init with
  | Some p0
    when Array.length p0 = n
         && Array.for_all (fun x -> Float.is_finite x && x >= 0.) p0
         && Float.abs (Vec.sum p0 -. 1.) <= 1e-6 ->
      Array.copy p0
  | _ -> Array.make n (1. /. float_of_int n)

(* The generator's transpose maps every vector to one that sums to zero
   (rows of Q sum to zero), so the residual r = -Q'pi and the whole
   Krylov space K_m(Q', r) lie in the sum-zero subspace: a correction
   drawn from it leaves the total mass of pi unchanged.  For an
   irreducible generator range(Q') and null(Q') intersect only in 0,
   which is the condition for GMRES to converge on the singular but
   consistent system Q' d = r. *)
let stationary ~apply ~lambda ~tol ~max_iter ?init n =
  let target = lambda *. tol in
  let m = restart in
  let pi = ref (seed ?init n) in
  (* Between cycles basis.(0) holds Q' pi for the current iterate, so
     the whole solve keeps m + 2 vectors of length n. *)
  let basis = Array.init (m + 1) (fun _ -> Array.make n 0.) in
  let h = Array.make_matrix (m + 1) m 0. in
  let cs = Array.make m 0. and sn = Array.make m 0. in
  let g = Array.make (m + 1) 0. and y = Array.make m 0. in
  let iters = ref 0 and restarts = ref 0 in
  apply !pi basis.(0);
  let residual = ref (Vec.norm_inf basis.(0)) in
  let res2 = ref (Vec.norm2 basis.(0)) in
  let converged = ref (!residual <= target) in
  let stalled = ref false in
  (* One GMRES(m) cycle for the correction d with Q' d = -Q' pi.
     Returns the number of Krylov steps taken. *)
  let cycle () =
    let v0 = basis.(0) and beta = !res2 in
    for i = 0 to n - 1 do
      v0.(i) <- -.v0.(i) /. beta
    done;
    Array.fill g 0 (m + 1) 0.;
    g.(0) <- beta;
    let k = ref 0 and stop = ref false in
    while (not !stop) && !k < m && !iters < max_iter do
      let j = !k in
      let w = basis.(j + 1) in
      apply basis.(j) w;
      incr iters;
      (* Modified Gram-Schmidt against v_0 .. v_j. *)
      let sq = ref 0. in
      for i = 0 to j do
        let vi = basis.(i) in
        let hij = Vec.dot w vi in
        h.(i).(j) <- hij;
        sq := !sq +. (hij *. hij);
        for l = 0 to n - 1 do
          Array.unsafe_set w l (Array.unsafe_get w l -. (hij *. Array.unsafe_get vi l))
        done
      done;
      let hnext = Vec.norm2 w in
      (* Apply the earlier rotations to column j, then zero h_{j+1,j}. *)
      for i = 0 to j - 1 do
        let a = h.(i).(j) and b = h.(i + 1).(j) in
        h.(i).(j) <- (cs.(i) *. a) +. (sn.(i) *. b);
        h.(i + 1).(j) <- (cs.(i) *. b) -. (sn.(i) *. a)
      done;
      let a = h.(j).(j) in
      let rho = Float.hypot a hnext in
      let c, s = if rho = 0. then (1., 0.) else (a /. rho, hnext /. rho) in
      cs.(j) <- c;
      sn.(j) <- s;
      h.(j).(j) <- rho;
      g.(j + 1) <- -.s *. g.(j);
      g.(j) <- c *. g.(j);
      k := j + 1;
      (* |g_{j+1}| is the 2-norm of the updated residual, an upper bound
         on its max-norm; a (numerically) invariant Krylov space means
         the least-squares correction is already exact. *)
      if Float.abs g.(j + 1) <= target || hnext <= 1e-14 *. sqrt (!sq +. (hnext *. hnext))
      then stop := true
      else
        for l = 0 to n - 1 do
          w.(l) <- w.(l) /. hnext
        done
    done;
    !k
  in
  while (not !converged) && (not !stalled) && !iters < max_iter do
    let k = cycle () in
    (* Back-substitute R y = g, then build pi + V y in the unused slot
       v_k and, once v_0 is no longer needed, its residual there. *)
    for i = k - 1 downto 0 do
      let acc = ref g.(i) in
      for l = i + 1 to k - 1 do
        acc := !acc -. (h.(i).(l) *. y.(l))
      done;
      y.(i) <- !acc /. h.(i).(i)
    done;
    let cand = basis.(k) and p = !pi in
    Array.blit p 0 cand 0 n;
    for j = 0 to k - 1 do
      let vj = basis.(j) and yj = y.(j) in
      for l = 0 to n - 1 do
        cand.(l) <- cand.(l) +. (yj *. vj.(l))
      done
    done;
    let finite = renormalize cand in
    let r = basis.(0) in
    if finite then apply cand r;
    let r2 = Vec.norm2 r in
    if finite && Float.is_finite r2 && r2 < !res2 then begin
      (* Accept: the candidate becomes the iterate and the old iterate's
         array goes back into the basis. *)
      let old2 = !res2 in
      basis.(k) <- p;
      pi := cand;
      res2 := r2;
      residual := Vec.norm_inf r;
      incr restarts;
      converged := !residual <= target;
      stalled := (not !converged) && r2 > stall_ratio *. old2
    end
    else stalled := true
  done;
  let fallback = !stalled && !iters < max_iter in
  if fallback then begin
    (* The cycle failed to cut the residual: finish with the
       uniformized sweep pi <- pi + Q' pi / Lambda from the best iterate,
       stopping on the same max-norm test. *)
    Obs.incr m_fallbacks;
    let p = !pi and qt = basis.(0) in
    while (not !converged) && !iters < max_iter do
      apply p qt;
      incr iters;
      let delta = ref 0. in
      for i = 0 to n - 1 do
        let step = qt.(i) /. lambda in
        p.(i) <- p.(i) +. step;
        delta := Float.max !delta (Float.abs step)
      done;
      residual := lambda *. !delta;
      converged := !delta <= tol
    done
  end;
  let pi = !pi in
  for i = 0 to n - 1 do
    pi.(i) <- Float.max 0. pi.(i)
  done;
  ignore (renormalize pi);
  ( pi,
    {
      iterations = !iters;
      restarts = !restarts;
      residual = !residual;
      fallback;
      converged = !converged;
    } )

let attrs = function
  | None -> []
  | Some r ->
      [
        ("iterations", string_of_int r.iterations);
        ("restarts", string_of_int r.restarts);
        ("residual", Printf.sprintf "%.3e" r.residual);
        ("fallback", string_of_bool r.fallback);
      ]
