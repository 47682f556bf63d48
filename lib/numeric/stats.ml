type t = {
  mutable n : int;
  mutable mu : float;
  mutable m2 : float;
  mutable lo : float;
  mutable hi : float;
}

let create () = { n = 0; mu = 0.; m2 = 0.; lo = infinity; hi = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mu in
  t.mu <- t.mu +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mu));
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x

let count t = t.n
let mean t = if t.n = 0 then Float.nan else t.mu
let variance t = if t.n < 2 then Float.nan else t.m2 /. float_of_int (t.n - 1)
let std_dev t = sqrt (variance t)
let std_error t = std_dev t /. sqrt (float_of_int t.n)
let min_value t = t.lo
let max_value t = t.hi

let of_list xs =
  let t = create () in
  List.iter (add t) xs;
  t

(* Two-sided 95% Student-t critical values; linear interpolation between the
   tabulated degrees of freedom, 1.96 beyond df = 120. *)
let t_table =
  [|
    (1, 12.706); (2, 4.303); (3, 3.182); (4, 2.776); (5, 2.571);
    (6, 2.447); (7, 2.365); (8, 2.306); (9, 2.262); (10, 2.228);
    (12, 2.179); (15, 2.131); (20, 2.086); (25, 2.060); (30, 2.042);
    (40, 2.021); (60, 2.000); (120, 1.980);
  |]

let t_quantile ~df =
  if df <= 0 then Float.nan
  else begin
    let n = Array.length t_table in
    let rec find i =
      if i >= n then 1.96
      else begin
        let dfi, ti = t_table.(i) in
        if df = dfi then ti
        else if df < dfi then
          if i = 0 then ti
          else begin
            let df0, t0 = t_table.(i - 1) in
            let frac = float_of_int (df - df0) /. float_of_int (dfi - df0) in
            t0 +. (frac *. (ti -. t0))
          end
        else find (i + 1)
      end
    in
    find 0
  end

let confidence_interval95 t =
  if t.n < 2 then (Float.nan, Float.nan)
  else begin
    let half = t_quantile ~df:(t.n - 1) *. std_error t in
    (mean t -. half, mean t +. half)
  end

let batch_means ~batch xs =
  if batch <= 0 then invalid_arg "Stats.batch_means: nonpositive batch size";
  let acc = create () in
  let rec loop remaining current count =
    match remaining with
    | [] -> ()
    | x :: rest ->
        let current = current +. x and count = count + 1 in
        if count = batch then begin
          add acc (current /. float_of_int batch);
          loop rest 0. 0
        end
        else loop rest current count
  in
  loop xs 0. 0;
  acc
