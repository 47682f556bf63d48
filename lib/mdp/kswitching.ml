type switch = {
  state : int;
  state_label : string;
  mix : (int * string * float) list;
}

type analysis = {
  switches : switch list;
  num_randomized : int;
  deterministic_states : int;
  bound : int;
  within_bound : bool;
}

let analyze ?(tol = 1e-6) ~constraints m p =
  let n = Ctmdp.num_states m in
  let switches = ref [] in
  let randomized = ref 0 in
  for s = n - 1 downto 0 do
    let probs = Policy.action_probs p s in
    let support =
      Array.to_list (Array.mapi (fun a pr -> (a, pr)) probs)
      |> List.filter (fun (_, pr) -> pr > tol)
    in
    if List.length support > 1 then begin
      incr randomized;
      let mix =
        List.map (fun (a, pr) -> (a, Ctmdp.action_label m s a, pr)) support
      in
      switches := { state = s; state_label = m.Ctmdp.state_label s; mix } :: !switches
    end
  done;
  {
    switches = !switches;
    num_randomized = !randomized;
    deterministic_states = n - !randomized;
    bound = constraints;
    within_bound = !randomized <= constraints;
  }

let of_occupation ?(tol = 1e-6) ?(mass_tol = 1e-9) ~constraints m x =
  let n = Ctmdp.num_states m in
  let switches = ref [] in
  let randomized = ref 0 in
  for s = n - 1 downto 0 do
    let mass = Array.fold_left ( +. ) 0. x.(s) in
    if mass > mass_tol then begin
      let support =
        Array.to_list (Array.mapi (fun a v -> (a, v /. mass)) x.(s))
        |> List.filter (fun (_, pr) -> pr > tol)
      in
      if List.length support > 1 then begin
        incr randomized;
        let mix =
          List.map (fun (a, pr) -> (a, Ctmdp.action_label m s a, pr)) support
        in
        switches := { state = s; state_label = m.Ctmdp.state_label s; mix } :: !switches
      end
    end
  done;
  {
    switches = !switches;
    num_randomized = !randomized;
    deterministic_states = n - !randomized;
    bound = constraints;
    within_bound = !randomized <= constraints;
  }

let pp ppf a =
  Format.fprintf ppf "@[<v>K-switching: %d randomized state(s), bound K = %d (%s)" a.num_randomized
    a.bound
    (if a.within_bound then "within bound" else "EXCEEDS bound");
  List.iter
    (fun s ->
      Format.fprintf ppf "@,  state %s:" s.state_label;
      List.iter (fun (_, label, pr) -> Format.fprintf ppf " %s@%.3f" label pr) s.mix)
    a.switches;
  Format.fprintf ppf "@]"
