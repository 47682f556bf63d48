type action = {
  label : string;
  transitions : (int * float) list;
  cost : float;
  extras : float array;
}

type t = {
  actions : action array array;
  exits : float array array;  (* exit rate of each action, summed once *)
  extras_count : int;
  state_labels : string array;
}

let exit_rate a = List.fold_left (fun acc (_, r) -> acc +. r) 0. a.transitions

let create ?state_labels ~num_extras actions =
  let n = Array.length actions in
  if n = 0 then invalid_arg "Ctmdp.create: no states";
  if num_extras < 0 then invalid_arg "Ctmdp.create: negative extras count";
  Array.iteri
    (fun s acts ->
      if Array.length acts = 0 then
        invalid_arg (Printf.sprintf "Ctmdp.create: state %d has no action" s);
      Array.iter
        (fun a ->
          if Array.length a.extras <> num_extras then
            invalid_arg
              (Printf.sprintf "Ctmdp.create: state %d action %S has %d extras, expected %d" s
                 a.label (Array.length a.extras) num_extras);
          List.iter
            (fun (j, r) ->
              if j < 0 || j >= n then
                invalid_arg (Printf.sprintf "Ctmdp.create: transition to unknown state %d" j);
              if j = s then invalid_arg "Ctmdp.create: self loop transition";
              if r <= 0. then invalid_arg "Ctmdp.create: nonpositive rate")
            a.transitions)
        acts)
    actions;
  let state_labels =
    match state_labels with
    | Some ls ->
        if Array.length ls <> n then invalid_arg "Ctmdp.create: label count mismatch";
        ls
    | None -> Array.init n string_of_int
  in
  {
    actions;
    exits = Array.map (Array.map exit_rate) actions;
    extras_count = num_extras;
    state_labels;
  }

let num_states t = Array.length t.actions
let num_extras t = t.extras_count
let num_actions t s = Array.length t.actions.(s)
let action t s a = t.actions.(s).(a)
let actions t s = t.actions.(s)
let exit_rates t s = t.exits.(s)
let state_label t s = t.state_labels.(s)

let total_state_actions t =
  Array.fold_left (fun acc acts -> acc + Array.length acts) 0 t.actions

let max_exit_rate t =
  Array.fold_left
    (fun acc acts -> Array.fold_left (fun acc a -> Float.max acc (exit_rate a)) acc acts)
    0. t.actions

let cost_bounds t =
  let lo = ref infinity and hi = ref neg_infinity in
  Array.iter
    (Array.iter (fun a ->
         if a.cost < !lo then lo := a.cost;
         if a.cost > !hi then hi := a.cost))
    t.actions;
  (!lo, !hi)

let map_costs t f =
  let actions =
    Array.mapi (fun s acts -> Array.mapi (fun a act -> { act with cost = f s a act }) acts) t.actions
  in
  { t with actions }

let is_unichain_heuristic t =
  (* Strong connectivity of the union graph: forward DFS from state 0 and a
     DFS on the reversed graph must both reach every state. *)
  let n = num_states t in
  let forward = Array.make n [] and backward = Array.make n [] in
  Array.iteri
    (fun s acts ->
      Array.iter
        (fun a ->
          List.iter
            (fun (j, _) ->
              forward.(s) <- j :: forward.(s);
              backward.(j) <- s :: backward.(j))
            a.transitions)
        acts)
    t.actions;
  let reaches_all graph =
    let seen = Array.make n false in
    let rec dfs i =
      if not seen.(i) then begin
        seen.(i) <- true;
        List.iter dfs graph.(i)
      end
    in
    dfs 0;
    Array.for_all (fun b -> b) seen
  in
  reaches_all forward && reaches_all backward

let pp_summary ppf t =
  let lo, hi = cost_bounds t in
  Format.fprintf ppf "CTMDP: %d states, %d state-action pairs, %d extras, cost in [%.4g, %.4g]"
    (num_states t) (total_state_actions t) t.extras_count lo hi
