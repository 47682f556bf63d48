let largest_remainder ?(minimum = 0) ~budget weights =
  let n = Array.length weights in
  Array.iter (fun w -> if w < 0. then invalid_arg "Apportion: negative weight") weights;
  if budget < minimum * n then invalid_arg "Apportion: budget below per-entry minimum";
  if n = 0 then [||]
  else begin
    let spare = budget - (minimum * n) in
    let total = Array.fold_left ( +. ) 0. weights in
    if total <= 0. then begin
      if spare > 0 && budget > 0 then
        (* No preference information: spread the spare evenly. *)
        Array.init n (fun i -> minimum + (spare / n) + if i < spare mod n then 1 else 0)
      else Array.make n minimum
    end
    else begin
      let shares = Array.make n minimum and rem = Array.make n 0. in
      for i = 0 to n - 1 do
        let quota = float_of_int spare *. weights.(i) /. total in
        shares.(i) <- minimum + int_of_float (Float.trunc quota);
        rem.(i) <- quota -. Float.trunc quota
      done;
      (* The leftover units go one each to the largest remainders, ties
         to the lower index (a total order, so any sort ranks alike). *)
      let leftover = budget - Array.fold_left ( + ) 0 shares in
      let order = Array.init n Fun.id in
      Array.stable_sort
        (fun i j -> match Float.compare rem.(j) rem.(i) with 0 -> Int.compare i j | c -> c)
        order;
      for rank = 0 to Int.min n leftover - 1 do
        shares.(order.(rank)) <- shares.(order.(rank)) + 1
      done;
      shares
    end
  end

let proportional_caps ?(minimum = 0) ~budget ~demands () =
  Array.iter (fun d -> if d < 0 then invalid_arg "Apportion: negative demand") demands;
  let base = Array.map (fun d -> Int.max minimum d) demands in
  let used = Array.fold_left ( + ) 0 base in
  if used < budget then begin
    (* Meet every demand (with the floor) and spread the surplus. *)
    let extra = largest_remainder ~budget:(budget - used) (Array.map float_of_int demands) in
    Array.map2 ( + ) base extra
  end
  else if used = budget then base
  else
    (* Demands (or floors) exceed the budget: divide proportionally. *)
    largest_remainder ~minimum ~budget (Array.map float_of_int demands)
