type t = float array

let create n x = Array.make n x
let init = Array.init
let zeros n = create n 0.
let dim = Array.length
let copy = Array.copy
let of_list = Array.of_list
let to_list = Array.to_list

let check_dims name u v =
  if Array.length u <> Array.length v then
    invalid_arg (Printf.sprintf "Vec.%s: dimensions %d <> %d" name (Array.length u) (Array.length v))

let add u v =
  check_dims "add" u v;
  Array.mapi (fun i x -> x +. v.(i)) u

let sub u v =
  check_dims "sub" u v;
  Array.mapi (fun i x -> x -. v.(i)) u

let scale a v = Array.map (fun x -> a *. x) v

let axpy a x y =
  check_dims "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

(* [check_dims] has checked both lengths, so the loop reads unchecked;
   GMRES's Gram-Schmidt inner products run through here. *)
let dot u v =
  check_dims "dot" u v;
  let acc = ref 0. in
  for i = 0 to Array.length u - 1 do
    acc := !acc +. (Array.unsafe_get u i *. Array.unsafe_get v i)
  done;
  !acc

(* Explicit loops rather than folds: a polymorphic fold boxes its float
   accumulator at every element.  The order is left to right, as a fold's. *)
let sum v =
  let acc = ref 0. in
  for i = 0 to Array.length v - 1 do
    acc := !acc +. v.(i)
  done;
  !acc

let norm_inf v =
  let acc = ref 0. in
  for i = 0 to Array.length v - 1 do
    acc := Float.max !acc (Float.abs v.(i))
  done;
  !acc

let norm2 v = sqrt (dot v v)

let max_index v =
  if Array.length v = 0 then invalid_arg "Vec.max_index: empty vector";
  let best = ref 0 in
  for i = 1 to Array.length v - 1 do
    if v.(i) > v.(!best) then best := i
  done;
  !best

let map2 f u v =
  check_dims "map2" u v;
  Array.mapi (fun i x -> f x v.(i)) u

let approx_equal ?(tol = 1e-9) u v =
  Array.length u = Array.length v
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= tol) u v

let pp ppf v =
  Format.fprintf ppf "[@[";
  Array.iteri
    (fun i x ->
      if i > 0 then Format.fprintf ppf ";@ ";
      Format.fprintf ppf "%.6g" x)
    v;
  Format.fprintf ppf "@]]"
