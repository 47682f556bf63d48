(* Sum-of-Kronecker-products operator.  See kronecker.mli for the
   contract; the implementation notes here cover the shuffle layout.

   Joint indices are mixed-radix with mode 0 most significant: a joint
   state (s_0, ..., s_{N-1}) maps to sum_i s_i * span_i with
   span_i = prod_{j>i} dims_j.  Applying mode [m] of a term then means
   multiplying by (I_left (x) A (x) I_right) with left = prod_{j<m} n_j
   and right = span_m: for every (left-block, right-offset) pair the
   entries at stride [right] form a contiguous-by-stride copy of a
   length-n_m vector that A acts on directly. *)

type factor = Identity | Factor of Sparse.t

type term = { coeff : float; factors : factor array }

type t = {
  dims : int array;
  spans : int array;  (* spans.(i) = prod dims.(i+1 ..) *)
  n : int;
  terms : term array;
}

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
  { dims; spans; n; terms = Array.of_list terms }

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

(* dst <- (I_left (x) a (x) I_right) src for mode [m]. *)
let apply_mode t src dst m a =
  let d = t.dims.(m) in
  let right = t.spans.(m) in
  let left = t.n / (d * right) in
  Array.fill dst 0 t.n 0.;
  let rp = a.Sparse.row_ptr and ci = a.Sparse.col_idx and v = a.Sparse.values in
  for blk = 0 to left - 1 do
    let base = blk * d * right in
    for r = 0 to d - 1 do
      let ob = base + (r * right) in
      for k = rp.(r) to rp.(r + 1) - 1 do
        let x = v.(k) in
        let ib = base + (ci.(k) * right) in
        for b = 0 to right - 1 do
          dst.(ob + b) <- dst.(ob + b) +. (x *. src.(ib + b))
        done
      done
    done
  done

(* dst <- (I_left (x) a' (x) I_right) src — same CSR walk, scattering
   along columns instead of gathering along rows. *)
let apply_mode_t t src dst m a =
  let d = t.dims.(m) in
  let right = t.spans.(m) in
  let left = t.n / (d * right) in
  Array.fill dst 0 t.n 0.;
  let rp = a.Sparse.row_ptr and ci = a.Sparse.col_idx and v = a.Sparse.values in
  for blk = 0 to left - 1 do
    let base = blk * d * right in
    for r = 0 to d - 1 do
      let ib = base + (r * right) in
      for k = rp.(r) to rp.(r + 1) - 1 do
        let x = v.(k) in
        let ob = base + (ci.(k) * right) in
        for b = 0 to right - 1 do
          dst.(ob + b) <- dst.(ob + b) +. (x *. src.(ib + b))
        done
      done
    done
  done

let mul_into apply ?scratch:sc t x y =
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
  let nmodes = Array.length t.dims in
  let bufs = [| s1; s2 |] in
  Array.iter
    (fun { coeff; factors } ->
      let src = ref x in
      let next = ref 0 in
      for m = 0 to nmodes - 1 do
        match factors.(m) with
        | Identity -> ()
        | Factor a ->
            let dst = bufs.(!next) in
            apply t !src dst m a;
            src := dst;
            next := 1 - !next
      done;
      let src = !src in
      for i = 0 to t.n - 1 do
        y.(i) <- y.(i) +. (coeff *. src.(i))
      done)
    t.terms

let mul_vec_into ?scratch t x y = mul_into apply_mode ?scratch t x y
let mul_vec_t_into ?scratch t x y = mul_into apply_mode_t ?scratch t x y

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
