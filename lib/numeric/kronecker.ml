(* Sum-of-Kronecker-products operator.  See kronecker.mli for the
   contract; the implementation notes here cover the gather kernel.

   Joint indices are mixed-radix with mode 0 most significant: a joint
   state (s_0, ..., s_{N-1}) maps to sum_i s_i * span_i with
   span_i = prod_{j>i} dims_j.  Applying mode [m] of a term then means
   multiplying by (I_left (x) A (x) I_right) with left = prod_{j<m} n_j
   and right = span_m: for every (left-block, right-offset) pair the
   entries at stride [right] form a contiguous-by-stride copy of a
   length-n_m vector that A acts on directly. *)

type factor = Identity | Factor of Sparse.t

type term = { coeff : float; factors : factor array }

(* A term as the kernel walks it: its non-identity modes in increasing
   order, with their factors and the factors' transposes (built once by
   [create], each d x d). *)
type stage = { c : float; modes : int array; fwd : Sparse.t array; bwd : Sparse.t array }

type t = {
  dims : int array;
  spans : int array;  (* spans.(i) = prod dims.(i+1 ..) *)
  n : int;
  terms : term array;
  stages : stage array;  (* one per term, same order *)
}

let stage { coeff; factors } =
  let modes, fwd =
    Array.to_list factors
    |> List.mapi (fun m f -> (m, f))
    |> List.filter_map (function m, Factor a -> Some (m, a) | _, Identity -> None)
    |> List.split
  in
  let fwd = Array.of_list fwd in
  { c = coeff; modes = Array.of_list modes; fwd; bwd = Array.map Sparse.transpose fwd }

let create ~dims terms =
  let nmodes = Array.length dims in
  if nmodes = 0 then invalid_arg "Kronecker.create: no modes";
  Array.iter
    (fun d -> if d <= 0 then invalid_arg "Kronecker.create: mode size must be positive")
    dims;
  let dims = Array.copy dims in
  let n =
    Array.fold_left
      (fun acc d ->
        if acc > max_int / d then invalid_arg "Kronecker.create: joint dimension overflows";
        acc * d)
      1 dims
  in
  let spans = Array.make nmodes 1 in
  for i = nmodes - 2 downto 0 do
    spans.(i) <- spans.(i + 1) * dims.(i + 1)
  done;
  List.iter
    (fun { coeff; factors } ->
      if not (Float.is_finite coeff) then
        invalid_arg "Kronecker.create: non-finite coefficient";
      if Array.length factors <> nmodes then
        invalid_arg "Kronecker.create: term arity does not match dims";
      Array.iteri
        (fun m f ->
          match f with
          | Identity -> ()
          | Factor a ->
              if a.Sparse.rows <> dims.(m) || a.Sparse.cols <> dims.(m) then
                invalid_arg "Kronecker.create: factor shape does not match its mode")
        factors)
    terms;
  let terms = Array.of_list terms in
  { dims; spans; n; terms; stages = Array.map stage terms }

let dims t = Array.copy t.dims
let num_states t = t.n
let terms t = Array.to_list t.terms

let encode t state =
  let nmodes = Array.length t.dims in
  if Array.length state <> nmodes then invalid_arg "Kronecker.encode: arity mismatch";
  let idx = ref 0 in
  for m = 0 to nmodes - 1 do
    let s = state.(m) in
    if s < 0 || s >= t.dims.(m) then invalid_arg "Kronecker.encode: digit out of range";
    idx := !idx + (s * t.spans.(m))
  done;
  !idx

let decode_into t idx state =
  if idx < 0 || idx >= t.n then invalid_arg "Kronecker.decode: index out of range";
  if Array.length state <> Array.length t.dims then
    invalid_arg "Kronecker.decode: arity mismatch";
  let rest = ref idx in
  for m = 0 to Array.length t.dims - 1 do
    state.(m) <- !rest / t.spans.(m);
    rest := !rest mod t.spans.(m)
  done

let decode t idx =
  let state = Array.make (Array.length t.dims) 0 in
  decode_into t idx state;
  state

type scratch = float array * float array

let scratch t = (Array.make t.n 0., Array.make t.n 0.)

(* The gather kernel: (I_left (x) a (x) I_right) src for mode [m].
   Output entry (blk, r, b) is the sum over row r of [a], in storage
   order, of a_{r,c} src(blk, c, b): from 0 in a register for
   [right = 1], from the row's first product for [right > 1] (the note
   in that branch says why the bits match).  Rows list their columns in
   increasing order, and a transposed row lists its entries in
   increasing original-row order, so gathering over [Sparse.transpose a]
   adds the terms of A' x in the order a column scatter over [a] would.

   [acc = false] writes the sums into [dst]; [acc = true] (the term's
   last non-identity mode) adds [coeff * sum] into [dst] instead, which
   for [right > 1] first collects one row of sums in [row] (at least
   [right] long, aliasing neither [src] nor [dst]).  Every index stays
   below [t.n]: [create] checked each factor's shape, and [Sparse.t]
   keeps its column indices in range. *)
let gather t ~acc coeff m (a : Sparse.t) (src : float array) (dst : float array)
    (row : float array) =
  let d = t.dims.(m) in
  let right = t.spans.(m) in
  let left = t.n / (d * right) in
  let rp = a.Sparse.row_ptr and ci = a.Sparse.col_idx and v = a.Sparse.values in
  if right = 1 then
    for blk = 0 to left - 1 do
      let base = blk * d in
      for r = 0 to d - 1 do
        let s = ref 0. in
        for k = Array.unsafe_get rp r to Array.unsafe_get rp (r + 1) - 1 do
          s :=
            !s
            +. Array.unsafe_get v k *. Array.unsafe_get src (base + Array.unsafe_get ci k)
        done;
        let o = base + r in
        if acc then Array.unsafe_set dst o (Array.unsafe_get dst o +. (coeff *. !s))
        else Array.unsafe_set dst o !s
      done
    done
  else
    for blk = 0 to left - 1 do
      let base = blk * d * right in
      for r = 0 to d - 1 do
        let ob = base + (r * right) in
        let seg = if acc then row else dst and so = if acc then 0 else ob in
        let k0 = Array.unsafe_get rp r and k1 = Array.unsafe_get rp (r + 1) in
        if k0 = k1 then Array.fill seg so right 0.
        else begin
          (* The first product starts each sum.  [0. +. p] differs from
             [p] only for p = -0., and that sign never reaches [y]: a
             signed zero times anything is a zero or the same NaN, and
             [y] starts at +0. and only has terms added, so it is never
             -0. and a zero of either sign added to it changes no bit. *)
          let x = Array.unsafe_get v k0 in
          let ib = base + (Array.unsafe_get ci k0 * right) in
          for b = 0 to right - 1 do
            Array.unsafe_set seg (so + b) (x *. Array.unsafe_get src (ib + b))
          done;
          for k = k0 + 1 to k1 - 1 do
            let x = Array.unsafe_get v k in
            let ib = base + (Array.unsafe_get ci k * right) in
            for b = 0 to right - 1 do
              Array.unsafe_set seg (so + b)
                (Array.unsafe_get seg (so + b) +. (x *. Array.unsafe_get src (ib + b)))
            done
          done
        end;
        if acc then
          for b = 0 to right - 1 do
            Array.unsafe_set dst (ob + b)
              (Array.unsafe_get dst (ob + b) +. (coeff *. Array.unsafe_get row b))
          done
      done
    done

(* y <- sum over terms of coeff * (product of the term's factors) x,
   mode by mode: each non-identity mode but the last gathers into the
   scratch buffer that is not its source, the last adds into y. *)
let mul_into ~transpose ?scratch:sc t x y =
  if Array.length x <> t.n || Array.length y <> t.n then
    invalid_arg "Kronecker.mul_vec_into: vector size mismatch";
  let s1, s2 =
    match sc with
    | Some (s1, s2) ->
        if Array.length s1 <> t.n || Array.length s2 <> t.n then
          invalid_arg "Kronecker.mul_vec_into: scratch size mismatch";
        (s1, s2)
    | None -> (Array.make t.n 0., Array.make t.n 0.)
  in
  Array.fill y 0 t.n 0.;
  let bufs = [| s1; s2 |] in
  Array.iter
    (fun { c; modes; fwd; bwd } ->
      let factors = if transpose then bwd else fwd in
      let last = Array.length modes - 1 in
      if last < 0 then
        for i = 0 to t.n - 1 do
          y.(i) <- y.(i) +. (c *. x.(i))
        done
      else begin
        let src = ref x and next = ref 0 in
        for j = 0 to last - 1 do
          let dst = bufs.(!next) in
          gather t ~acc:false c modes.(j) factors.(j) !src dst dst;
          src := dst;
          next := 1 - !next
        done;
        gather t ~acc:true c modes.(last) factors.(last) !src y bufs.(!next)
      end)
    t.stages

let mul_vec_into ?scratch t x y = mul_into ~transpose:false ?scratch t x y
let mul_vec_t_into ?scratch t x y = mul_into ~transpose:true ?scratch t x y

let mul_vec t x =
  let y = Array.make t.n 0. in
  mul_vec_into t x y;
  y

let mul_vec_t t x =
  let y = Array.make t.n 0. in
  mul_vec_t_into t x y;
  y

let diagonal t =
  let nmodes = Array.length t.dims in
  let d = Array.make t.n 0. in
  Array.iter
    (fun { coeff; factors } ->
      (* Per-mode diagonals; identity modes contribute ones. *)
      let diags =
        Array.init nmodes (fun m ->
            match factors.(m) with
            | Identity -> Array.make t.dims.(m) 1.
            | Factor a -> Array.init t.dims.(m) (fun s -> Sparse.get a s s))
      in
      let state = Array.make nmodes 0 in
      for idx = 0 to t.n - 1 do
        let p = ref coeff in
        for m = 0 to nmodes - 1 do
          p := !p *. diags.(m).(state.(m))
        done;
        d.(idx) <- d.(idx) +. !p;
        (* Increment the mixed-radix counter (last mode fastest). *)
        let m = ref (nmodes - 1) in
        let carry = ref true in
        while !carry && !m >= 0 do
          state.(!m) <- state.(!m) + 1;
          if state.(!m) = t.dims.(!m) then begin
            state.(!m) <- 0;
            decr m
          end
          else carry := false
        done
      done)
    t.terms;
  d

let materialize t =
  let nmodes = Array.length t.dims in
  let triplets = ref [] in
  Array.iter
    (fun { coeff; factors } ->
      (* Cartesian product of per-mode entries; identities contribute
         their diagonal.  Depth-first so entry order is deterministic. *)
      let rec go m row col v =
        if m = nmodes then triplets := (row, col, coeff *. v) :: !triplets
        else
          let d = t.dims.(m) in
          match factors.(m) with
          | Identity ->
              for s = 0 to d - 1 do
                go (m + 1) ((row * d) + s) ((col * d) + s) v
              done
          | Factor a ->
              for r = 0 to d - 1 do
                Sparse.iter_row a r (fun c x -> go (m + 1) ((row * d) + r) ((col * d) + c) (v *. x))
              done
      in
      go 0 0 0 1.)
    t.terms;
  Sparse.of_triplets ~rows:t.n ~cols:t.n (List.rev !triplets)
