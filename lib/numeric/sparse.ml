(* Compressed sparse row matrices.  See sparse.mli for the contract. *)

type t = {
  rows : int;
  cols : int;
  row_ptr : int array;
  col_idx : int array;
  values : float array;
}

let nnz t = t.row_ptr.(t.rows)
let row_nnz t i = t.row_ptr.(i + 1) - t.row_ptr.(i)

(* Sort entries [lo, hi) of the parallel arrays by column, stably, so
   duplicates keep their list order.  Insertion sort for the short rows
   of generators and LP blocks; a stable sort of positions above. *)
let sort_row col_idx values lo hi =
  if hi - lo <= 16 then
    for k = lo + 1 to hi - 1 do
      let j = col_idx.(k) and v = values.(k) in
      let p = ref k in
      while !p > lo && col_idx.(!p - 1) > j do
        col_idx.(!p) <- col_idx.(!p - 1);
        values.(!p) <- values.(!p - 1);
        decr p
      done;
      col_idx.(!p) <- j;
      values.(!p) <- v
    done
  else begin
    let order = Array.init (hi - lo) (fun k -> lo + k) in
    Array.stable_sort (fun a b -> Int.compare col_idx.(a) col_idx.(b)) order;
    let cs = Array.map (fun k -> col_idx.(k)) order in
    let vs = Array.map (fun k -> values.(k)) order in
    Array.blit cs 0 col_idx lo (hi - lo);
    Array.blit vs 0 values lo (hi - lo)
  end

let of_row_entries ~rows ~cols ~row_ptr ~col_idx ~values =
  if rows < 0 || cols < 0 then invalid_arg "Sparse.of_row_entries: negative dimensions";
  let total = Array.length col_idx in
  if Array.length row_ptr <> rows + 1 || row_ptr.(0) <> 0 || row_ptr.(rows) <> total
     || Array.length values <> total
  then invalid_arg "Sparse.of_row_entries: array lengths disagree";
  (* Per row: a stable sort by column, then one merge that accumulates
     duplicates in their array order and drops exact zero sums,
     compacting in place. *)
  let kept = ref 0 in
  for i = 0 to rows - 1 do
    let lo = row_ptr.(i) and hi = row_ptr.(i + 1) in
    if hi < lo then invalid_arg "Sparse.of_row_entries: row_ptr decreases";
    for k = lo to hi - 1 do
      let j = col_idx.(k) in
      if j < 0 || j >= cols then
        invalid_arg
          (Printf.sprintf "Sparse.of_row_entries: entry (%d, %d) out of %dx%d" i j rows cols)
    done;
    sort_row col_idx values lo hi;
    row_ptr.(i) <- !kept;
    let k = ref lo in
    while !k < hi do
      let j = col_idx.(!k) in
      let acc = ref values.(!k) in
      incr k;
      while !k < hi && col_idx.(!k) = j do
        acc := !acc +. values.(!k);
        incr k
      done;
      if !acc <> 0. then begin
        col_idx.(!kept) <- j;
        values.(!kept) <- !acc;
        incr kept
      end
    done
  done;
  row_ptr.(rows) <- !kept;
  let trim a = if !kept = total then a else Array.sub a 0 !kept in
  { rows; cols; row_ptr; col_idx = trim col_idx; values = trim values }

let of_triplets ~rows ~cols entries =
  if rows < 0 || cols < 0 then
    invalid_arg "Sparse.of_triplets: negative dimensions";
  (* Counting pass (validating), then a fill in list order, so duplicates
     accumulate in list order and float sums are reproducible regardless
     of how callers interleave rows. *)
  let row_ptr = Array.make (rows + 1) 0 in
  List.iter
    (fun (i, j, _) ->
      if i < 0 || i >= rows || j < 0 || j >= cols then
        invalid_arg
          (Printf.sprintf "Sparse.of_triplets: entry (%d, %d) out of %dx%d" i j
             rows cols);
      row_ptr.(i + 1) <- row_ptr.(i + 1) + 1)
    entries;
  for i = 0 to rows - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + row_ptr.(i + 1)
  done;
  let total = row_ptr.(rows) in
  let col_idx = Array.make total 0 and values = Array.make total 0. in
  let fill = Array.sub row_ptr 0 rows in
  List.iter
    (fun (i, j, v) ->
      let k = fill.(i) in
      col_idx.(k) <- j;
      values.(k) <- v;
      fill.(i) <- k + 1)
    entries;
  of_row_entries ~rows ~cols ~row_ptr ~col_idx ~values

let of_dense (m : Mat.t) =
  let rows = m.Mat.rows and cols = m.Mat.cols in
  let row_ptr = Array.make (rows + 1) 0 in
  for i = 0 to rows - 1 do
    let c = ref 0 in
    for j = 0 to cols - 1 do
      if Mat.get m i j <> 0. then incr c
    done;
    row_ptr.(i + 1) <- row_ptr.(i) + !c
  done;
  let n = row_ptr.(rows) in
  let col_idx = Array.make n 0 and values = Array.make n 0. in
  let k = ref 0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let v = Mat.get m i j in
      if v <> 0. then begin
        col_idx.(!k) <- j;
        values.(!k) <- v;
        incr k
      end
    done
  done;
  { rows; cols; row_ptr; col_idx; values }

let to_dense t =
  let m = Mat.zeros t.rows t.cols in
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      Mat.set m i t.col_idx.(k) t.values.(k)
    done
  done;
  m

let get t i j =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then
    invalid_arg "Sparse.get: index out of range";
  let lo = ref t.row_ptr.(i) and hi = ref (t.row_ptr.(i + 1) - 1) in
  let res = ref 0. in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = t.col_idx.(mid) in
    if c = j then begin
      res := t.values.(mid);
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !res

let iter_row t i f =
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    f t.col_idx.(k) t.values.(k)
  done

let iter t f =
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      f i t.col_idx.(k) t.values.(k)
    done
  done

let mul_vec_into t x y =
  if Array.length x <> t.cols then invalid_arg "Sparse.mul_vec: size mismatch";
  if Array.length y <> t.rows then invalid_arg "Sparse.mul_vec: out mismatch";
  for i = 0 to t.rows - 1 do
    let s = ref 0. in
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      s := !s +. (t.values.(k) *. x.(t.col_idx.(k)))
    done;
    y.(i) <- !s
  done

let mul_vec t x =
  let y = Array.make t.rows 0. in
  mul_vec_into t x y;
  y

let mul_vec_t_into t x y =
  if Array.length x <> t.rows then
    invalid_arg "Sparse.mul_vec_t: size mismatch";
  if Array.length y <> t.cols then invalid_arg "Sparse.mul_vec_t: out mismatch";
  Array.fill y 0 (Array.length y) 0.;
  for i = 0 to t.rows - 1 do
    let xi = x.(i) in
    if xi <> 0. then
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        let j = t.col_idx.(k) in
        y.(j) <- y.(j) +. (t.values.(k) *. xi)
      done
  done

let mul_vec_t t x =
  let y = Array.make t.cols 0. in
  mul_vec_t_into t x y;
  y

let scale a t = { t with values = Array.map (fun v -> a *. v) t.values }
let with_values t values =
  if Array.length values <> nnz t then
    invalid_arg "Sparse.with_values: value count mismatch";
  { t with values }

let index t i j =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then
    invalid_arg "Sparse.index: index out of range";
  let lo = ref t.row_ptr.(i) and hi = ref (t.row_ptr.(i + 1) - 1) in
  let res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = t.col_idx.(mid) in
    if c = j then begin
      res := mid;
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  if !res < 0 then None else Some !res

let transpose t =
  let n = nnz t in
  let row_ptr = Array.make (t.cols + 1) 0 in
  for k = 0 to n - 1 do
    let j = t.col_idx.(k) in
    row_ptr.(j + 1) <- row_ptr.(j + 1) + 1
  done;
  for j = 0 to t.cols - 1 do
    row_ptr.(j + 1) <- row_ptr.(j) + row_ptr.(j + 1)
  done;
  let fill = Array.copy row_ptr in
  let col_idx = Array.make n 0 and values = Array.make n 0. in
  (* Row-major scan emits each transposed row's entries in increasing
     original-row order, i.e. increasing column order of the result. *)
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let j = t.col_idx.(k) in
      let pos = fill.(j) in
      col_idx.(pos) <- i;
      values.(pos) <- t.values.(k);
      fill.(j) <- pos + 1
    done
  done;
  { rows = t.cols; cols = t.rows; row_ptr; col_idx; values }

let row_sums t =
  let s = Array.make t.rows 0. in
  for i = 0 to t.rows - 1 do
    let acc = ref 0. in
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      acc := !acc +. t.values.(k)
    done;
    s.(i) <- !acc
  done;
  s

let approx_equal ?(tol = 1e-12) a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let ok = ref true in
  for i = 0 to a.rows - 1 do
    for j = 0 to a.cols - 1 do
      if Float.abs (get a i j -. get b i j) > tol then ok := false
    done
  done;
  !ok

let pp fmt t =
  Format.fprintf fmt "@[<v>sparse %dx%d (nnz %d)" t.rows t.cols (nnz t);
  for i = 0 to t.rows - 1 do
    if row_nnz t i > 0 then begin
      Format.fprintf fmt "@,row %d:" i;
      iter_row t i (fun j v -> Format.fprintf fmt " (%d, %g)" j v)
    end
  done;
  Format.fprintf fmt "@]"
