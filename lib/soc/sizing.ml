module Constrained = Bufsize_mdp.Constrained
module Policy_iteration = Bufsize_mdp.Policy_iteration
module Resilience = Bufsize_resilience.Resilience
module Obs = Bufsize_obs.Obs
module Solve_cache = Bufsize_numeric.Solve_cache
module Birth_death = Bufsize_prob.Birth_death

let m_subsystems = Obs.counter "sizing.subsystems"

type solver = Joint | Separate
type sharing = Static | Damq

type config = {
  budget : int;
  occupancy_fraction : float;
  quantile : float;
  max_states : int;
  solver : solver;
  sharing : sharing;
  client_weight : Traffic.client -> float;
}

let default_config ~budget =
  {
    budget;
    occupancy_fraction = 0.6;
    quantile = 0.95;
    max_states = 96;
    solver = Joint;
    sharing = Static;
    client_weight = (fun _ -> 1.);
  }

type subsystem_solution = {
  model : Bus_model.t;
  solved : Constrained.solved;
  occupancy : float array array;
  requirements : (Topology.bus_id * Traffic.client * float) list;
}

type result = {
  config : config;
  split : Splitting.t;
  solutions : subsystem_solution array;
  allocation : Buffer_alloc.t;
  predicted_loss_rate : float;
  words_per_level : float;
  budget_bound_active : bool;
  bound_price : float;
  health : Resilience.health;
  cache_hit : bool;
}

(* Demote a diagnostic after a recovery the chain itself could not see
   (e.g. re-solving without the occupancy bound): keep any failure, fold
   the new defect into a Degraded status, and record the extra fallback. *)
let demote note fallback (d : Resilience.diagnostic) =
  match d.Resilience.status with
  | Resilience.Failed _ -> d
  | Resilience.Ok ->
      {
        d with
        Resilience.status = Resilience.Degraded note;
        fallbacks = d.Resilience.fallbacks @ [ fallback ];
      }
  | Resilience.Degraded r ->
      {
        d with
        Resilience.status = Resilience.Degraded (r ^ "; " ^ note);
        fallbacks = d.Resilience.fallbacks @ [ fallback ];
      }

(* Smallest level whose cumulative stationary probability reaches the
   quantile. *)
let quantile_level dist q =
  let acc = ref 0. in
  let result = ref (Array.length dist - 1) in
  (try
     Array.iteri
       (fun l p ->
         acc := !acc +. p;
         if !acc >= q then begin
           result := l;
           raise Exit
         end)
       dist
   with Exit -> ());
  !result

let requirements_for model ~words_per_level ~quantile occupancy =
  let sub = Bus_model.subsystem model in
  let loaded = Bus_model.loaded_clients model in
  Array.to_list
    (Array.mapi
       (fun i (c : Bus_model.client_model) ->
         (* The smallest level covering the occupancy quantile, in words.
            Floor of two levels per loaded client: one for the request in
            service and one of burst headroom — coarse (1-level) client
            models cannot represent the bus-wide backlog tails that the
            re-simulation punishes.  A client whose losses weigh w times
            more gets its occupancy covered to a w-fold smaller tail
            probability. *)
         let weighted_quantile =
           let w = Float.max 1e-9 c.Bus_model.weight in
           Float.min 0.999999 (1. -. ((1. -. quantile) /. w))
         in
         let level = Int.max 2 (quantile_level occupancy.(i) weighted_quantile) in
         let demand = float_of_int level *. words_per_level in
         (sub.Splitting.bus, c.Bus_model.client, demand))
       loaded)

let bus_label model = "bus-" ^ string_of_int (Bus_model.subsystem model).Splitting.bus

let unconstrained_note = "occupancy budget bound not honored: solved unconstrained"

(* State-space guard for shared-pool models: C(K+n, n) grows much faster
   than the static product, so allow a few times the static cap before
   giving up on the DAMQ comparison for a bus. *)
let shared_guard config = Int.max 512 (4 * config.max_states)

(* Solve independent blocks under at most one shared occupancy bound,
   retrying without the bound when it cannot be met or the solve gives
   up: (answer, bound kept, diagnostic), and the price-0 lines of the
   first slack test that completed. *)
let solve_blocks ?bound blocks =
  let outcome, diag, free = Constrained.solve_price ?bound blocks in
  match outcome with
  | Some (Constrained.Optimal a) -> (Some (a, true, diag), free)
  | _ when bound = None -> (None, free)
  | _ -> (
      let outcome, diag, retry_free = Constrained.solve_price blocks in
      let free = if free = None then retry_free else free in
      match outcome with
      | Some (Constrained.Optimal a) ->
          (Some (a, false, demote unconstrained_note "unconstrained" diag), free)
      | _ -> (None, free))

(* A subsystem's DAMQ shared pool, solved: the pool model, its answer,
   the pool's price-0 line (its unconstrained optimum) when the slack test
   completed, and the solve's diagnostic. *)
type damq_pool = {
  pool : Bus_model.Shared.t;
  answer : Constrained.solved;
  pool_free : Policy_iteration.line option;
  pool_diag : Resilience.diagnostic;
}

(* Re-solve one statically solved subsystem as a DAMQ shared pool of equal
   capacity (total static levels).  The static partition's admission rule
   is included as an action alternative, so the shared optimum can never
   be worse.  [run] holds the pool's time-average occupancy to what the
   static solution achieved (plus numerical slack) so the comparison does
   not trade buffer space for loss; without [bound] the answer is the
   pool's unconstrained optimum. *)
let damq_reeval ?bound config (s : subsystem_solution) =
  let sub = Bus_model.subsystem s.model in
  let levels =
    Array.map (fun (c : Bus_model.client_model) -> c.Bus_model.levels) (Bus_model.clients s.model)
  in
  let capacity = Bus_model.total_levels s.model in
  match
    Obs.span ~name:"sizing.build"
      ~attrs:(fun () ->
        [ ("bus", string_of_int sub.Splitting.bus); ("pool", string_of_int capacity) ])
      (fun () ->
        Bus_model.Shared.build ~weights:config.client_weight ~static_levels:levels
          ~max_states:(shared_guard config) ~capacity sub)
  with
  | exception Invalid_argument msg -> Error msg
  | pool -> (
      match solve_blocks ?bound [| Bus_model.Shared.ctmdp pool |] with
      | Some (a, _, pool_diag), free ->
          Ok
            {
              pool;
              answer = a.Constrained.components.(0);
              pool_free = Option.map (fun lines -> lines.(0)) free;
              pool_diag;
            }
      | None, _ -> Error "shared-pool solve failed")

let solve_subsystems config models ctmdps =
  let total_levels =
    Array.fold_left (fun acc m -> acc + Bus_model.total_levels m) 0 models
  in
  let words_per_level = float_of_int config.budget /. float_of_int total_levels in
  (* The shared occupancy bound expressed in levels. *)
  let bound_levels =
    config.occupancy_fraction *. float_of_int config.budget /. words_per_level
  in
  let fail () = failwith "Sizing.run: subsystem solve failed even without the budget bound" in
  match config.solver with
  | Joint -> (
      (* One price couples the blocks. *)
      match
        Obs.span ~name:"sizing.solve-joint"
          ~attrs:(fun () -> [ ("subsystems", string_of_int (Array.length ctmdps)) ])
          (fun () -> solve_blocks ~bound:bound_levels ctmdps)
      with
      | Some (a, active, diag), free ->
          ( a.Constrained.components,
            a.Constrained.total_gain,
            active,
            a.Constrained.price,
            words_per_level,
            [ ("joint", diag) ],
            match free with
            | Some lines -> Array.map Option.some lines
            | None -> Array.map (fun _ -> None) ctmdps )
      | None, _ -> fail ())
  | Separate ->
      let shares =
        (* Divide the occupancy bound proportionally to represented levels. *)
        Array.map
          (fun m ->
            bound_levels *. float_of_int (Bus_model.total_levels m) /. float_of_int total_levels)
          models
      in
      (* Each subsystem is independent (that is the paper's point), with a
         price of its own. *)
      let solve_one i m =
        Obs.span ~name:"sizing.subsystem"
          ~attrs:(fun () -> [ ("bus", bus_label models.(i)) ])
        @@ fun () ->
        match solve_blocks ~bound:shares.(i) [| m |] with
        | Some (a, active, diag), free ->
            ( (a.Constrained.components.(0), active, a.Constrained.price, diag),
              Option.map (fun lines -> lines.(0)) free )
        | None, _ -> fail ()
      in
      let solved = Array.mapi solve_one ctmdps in
      let free = Array.map snd solved in
      let solved = Array.map fst solved in
      let solutions = Array.map (fun (s, _, _, _) -> s) solved in
      let active = Array.for_all (fun (_, a, _, _) -> a) solved in
      (* The report's price is the largest block price: the bound binds
         when it binds anywhere. *)
      let price = Array.fold_left (fun acc (_, _, p, _) -> Float.max acc p) 0. solved in
      let health =
        Array.to_list (Array.mapi (fun i (_, _, _, d) -> (bus_label models.(i), d)) solved)
      in
      let gain = Array.fold_left (fun acc s -> acc +. s.Constrained.gain) 0. solutions in
      (solutions, gain, active, price, words_per_level, health, free)

(* The expensive middle of [run] — CTMDP construction, the constrained
   solve(s), the occupancy post-processing and, under
   [Damq], the shared routers' pool solves — is a deterministic function
   of the post-profile subsystems, the routers marked shared and the
   numeric config, so it is memoized in a process-wide exact-key cache.
   The key is binary and injective by construction: every float that
   feeds the computation is written as its IEEE bit pattern
   ([Int64.bits_of_float]), every int as 8 little-endian bytes, every
   variant as a one-byte tag, and every string and list behind its
   length, so two keys are equal only when all their inputs are
   (including the [client_weight] closure {e evaluated} on each client —
   closures cannot be compared, their values on the actual inputs can).
   A hit therefore replays exactly what a recompute would produce, and
   building the key formats no number.  The allocation is recomputed
   fresh on hits: it also depends on the caller's [traffic] value, which
   the key does not capture.  Everything that depends on the payload
   alone (the requirements, the occupancy health check and both forms of
   the health report) is built once with it.  The price-0 lines and the
   pool solves are kept so that [compare_sharing] needs no solve of its
   own. *)
type cached = {
  c_solutions : subsystem_solution array;
  c_words_per_level : float;
  c_bound_active : bool;
  c_bound_price : float;
  c_free : Policy_iteration.line option array;
      (* per subsystem: its price-0 line, the unconstrained optimum *)
  c_damq : (damq_pool, string) Stdlib.result option array;
      (* per subsystem: its bounded pool solve, under [Damq] on a router
         marked shared *)
  c_predicted_loss_rate : float;
  c_requirements : (Topology.bus_id * Traffic.client * float) list;
  c_health : Resilience.health;  (* the solve's own report *)
  c_hit_health : Resilience.health;  (* the same, as a hit replays it *)
}

let cache : cached Solve_cache.t = Solve_cache.create ~capacity:16 "sizing"

let cache_stats () = (Solve_cache.hits cache, Solve_cache.misses cache)

let cache_key config ~shared (subsystems : Splitting.subsystem array) =
  let buf = Buffer.create 640 in
  let int n = Buffer.add_int64_le buf (Int64.of_int n) in
  let float x = Buffer.add_int64_le buf (Int64.bits_of_float x) in
  let tag b = Buffer.add_char buf (Char.unsafe_chr b) in
  int config.budget;
  float config.occupancy_fraction;
  float config.quantile;
  int config.max_states;
  tag (match config.solver with Joint -> 0 | Separate -> 1);
  tag (match config.sharing with Static -> 0 | Damq -> 1);
  int (Array.length subsystems);
  Array.iter
    (fun (s : Splitting.subsystem) ->
      int s.Splitting.index;
      int s.Splitting.bus;
      tag (Bool.to_int (shared s.Splitting.bus));
      int (String.length s.Splitting.bus_name);
      Buffer.add_string buf s.Splitting.bus_name;
      float s.Splitting.service_rate;
      int (List.length s.Splitting.clients);
      List.iter
        (fun (c, r) ->
          (match c with
          | Traffic.Proc_client p ->
              tag 0;
              int p
          | Traffic.Bridge_client { bridge; into_bus } ->
              tag 1;
              int bridge;
              int into_bus);
          float r;
          float (config.client_weight c))
        s.Splitting.clients)
    subsystems;
  Buffer.contents buf

(* Under [Damq], the routers marked shared are re-solved as a shared pool
   of equal capacity; the allocation stays the static one (its per-client
   words become the pool the bus draws from at runtime), only the
   predicted loss reflects the dynamic sharing: (pool solves, health,
   predicted loss). *)
let damq_stage config traffic solutions total_gain =
  match config.sharing with
  | Static -> (Array.map (fun _ -> None) solutions, [], total_gain)
  | Damq ->
      let topo = Traffic.topology traffic in
      let delta = ref 0. in
      let health = ref [] in
      let pools =
        Array.map
          (fun s ->
            let bus = (Bus_model.subsystem s.model).Splitting.bus in
            if not (Topology.shared_buffer topo bus) then None
            else begin
              let label = bus_label s.model ^ "-damq" in
              let used = s.solved.Constrained.usage in
              let r = damq_reeval ~bound:(used +. (1e-6 *. (1. +. Float.abs used))) config s in
              (match r with
              | Ok d ->
                  let g =
                    Float.min d.answer.Constrained.gain s.solved.Constrained.gain
                  in
                  delta := !delta +. (s.solved.Constrained.gain -. g);
                  health := (label, d.pool_diag) :: !health
              | Error msg ->
                  health :=
                    ( label,
                      Resilience.degraded ~solver:label ("kept static partition: " ^ msg) )
                    :: !health);
              Some r
            end)
          solutions
      in
      (pools, List.rev !health, total_gain -. !delta)

(* Per-subsystem occupancy health: the stationary marginals feeding the
   quantile requirements must be finite and normalized — a defect here
   silently corrupts the allocation, so it is surfaced as Degraded. *)
let occupancy_health solutions =
  Array.to_list
    (Array.map
       (fun s ->
         let label = bus_label s.model in
         let solver = "sizing.occupancy(" ^ label ^ ")" in
         let bad = ref [] in
         Array.iteri
           (fun i dist ->
             let sum = Array.fold_left ( +. ) 0. dist in
             if not (Resilience.all_finite dist && Float.abs (sum -. 1.) <= 1e-6) then
               bad := i :: !bad)
           s.occupancy;
         let d =
           if !bad = [] then Resilience.ok ~solver ()
           else
             Resilience.degraded ~solver
               (Printf.sprintf "invalid occupancy marginal for client(s) %s"
                  (String.concat "," (List.rev_map string_of_int !bad)))
         in
         (label ^ "-occupancy", d))
       solutions)

(* [run], and the payload that [compare_sharing] reuses. *)
let solve ?measured_rates config traffic =
  Obs.span ~name:"sizing.run"
    ~attrs:(fun () -> [ ("budget", string_of_int config.budget) ])
  @@ fun () ->
  Buffer_alloc.check_budget traffic ~budget:config.budget;
  if config.budget <= 0 then invalid_arg "Sizing.run: budget must be positive";
  if config.occupancy_fraction <= 0. || config.occupancy_fraction > 1. then
    invalid_arg "Sizing.run: occupancy_fraction must be in (0, 1]";
  if config.quantile <= 0. || config.quantile > 1. then
    invalid_arg "Sizing.run: quantile must be in (0, 1]";
  let split = Splitting.split traffic in
  (* Profiled rates, when supplied, replace the analytically routed ones
     (they capture loss thinning and burst clustering the routing-based
     derivation cannot see). *)
  let apply_profile (s : Splitting.subsystem) =
    match measured_rates with
    | None -> s
    | Some rate_of ->
        let clients =
          List.map
            (fun (c, r) ->
              match rate_of s.Splitting.bus c with
              | Some measured when measured > 0. && r > 0. -> (c, measured)
              | Some _ | None -> (c, r))
            s.Splitting.clients
        in
        { s with Splitting.clients }
  in
  let subsystems = Array.map apply_profile split.Splitting.subsystems in
  Obs.add m_subsystems (Array.length subsystems);
  let shared =
    match config.sharing with
    | Static -> fun _ -> false
    | Damq -> Topology.shared_buffer (Traffic.topology traffic)
  in
  let key = cache_key config ~shared subsystems in
  let cached = Solve_cache.find cache key in
  let payload =
    match cached with
    | Some p -> p
    | None ->
        let models =
          Array.map
            (fun (s : Splitting.subsystem) ->
              Obs.span ~name:"sizing.build"
                ~attrs:(fun () -> [ ("bus", string_of_int s.Splitting.bus) ])
                (fun () ->
                  Bus_model.build ~weights:config.client_weight
                    ~max_states:config.max_states s))
            subsystems
        in
        let ctmdps = Array.map Bus_model.ctmdp models in
        let solved, total_gain, bound_active, bound_price, words_per_level, solve_health, free =
          solve_subsystems config models ctmdps
        in
        let solutions =
          Array.mapi
            (fun i model ->
              Obs.span ~name:"sizing.occupancy"
                ~attrs:(fun () -> [ ("bus", bus_label model) ])
              @@ fun () ->
              let s = solved.(i) in
              let occupancy = Bus_model.occupancy_distribution model s.Constrained.stationary in
              let requirements =
                requirements_for model ~words_per_level ~quantile:config.quantile occupancy
              in
              { model; solved = s; occupancy; requirements })
            models
        in
        let damq, damq_health, predicted_loss_rate =
          damq_stage config traffic solutions total_gain
        in
        let replayed = solve_health @ damq_health in
        let occupancy = occupancy_health solutions in
        let payload =
          {
            c_solutions = solutions;
            c_words_per_level = words_per_level;
            c_bound_active = bound_active;
            c_bound_price = bound_price;
            c_free = free;
            c_damq = damq;
            c_predicted_loss_rate = predicted_loss_rate;
            c_requirements = List.concat_map (fun s -> s.requirements) (Array.to_list solutions);
            c_health = replayed @ occupancy;
            (* A hit ran no solver: its replayed diagnostics took no time
               and point at no span of the hit's trace. *)
            c_hit_health =
              List.map (fun (l, d) -> (l, { d with Resilience.wall_ms = 0.; span_id = 0 })) replayed
              @ occupancy;
          }
        in
        (* Degraded solves may depend on wall-clock budgets; only the
           deterministic clean path is worth replaying. *)
        if Resilience.health_ok solve_health && Resilience.health_ok damq_health then
          Solve_cache.add cache key payload;
        payload
  in
  let cache_hit = Option.is_some cached in
  let allocation =
    Buffer_alloc.of_requirements traffic ~budget:config.budget payload.c_requirements
  in
  ( {
      config;
      split;
      solutions = payload.c_solutions;
      allocation;
      predicted_loss_rate = payload.c_predicted_loss_rate;
      words_per_level = payload.c_words_per_level;
      budget_bound_active = payload.c_bound_active;
      bound_price = payload.c_bound_price;
      health = (if cache_hit then payload.c_hit_health else payload.c_health);
      cache_hit;
    },
    payload )

let run ?measured_rates config traffic = fst (solve ?measured_rates config traffic)

type sharing_entry = {
  cmp_bus : Topology.bus_id;
  cmp_bus_name : string;
  cmp_clients : int;
  cmp_capacity : int;
  static_loss : float;
  damq_loss : float;
  separate_loss : float;
  static_delay : float;
  damq_delay : float;
  separate_delay : float;
}

type sharing_report = {
  entries : sharing_entry list;
  skipped : (string * string) list;
  total_static_loss : float;
  total_damq_loss : float;
  total_separate_loss : float;
}

(* A price-path answer that is the deterministic policy of [line]:
   bitwise what [Constrained.deterministic_solved] of the line's choice
   would return. *)
let reusable (answer : Constrained.solved) line =
  let policy = answer.Constrained.policy in
  policy.Bufsize_mdp.Policy.mix = None
  && policy.Bufsize_mdp.Policy.choice = line.Policy_iteration.choice

(* Mean model-levels in system divided by accepted throughput: Little's
   law on the occupancy abstraction.  Comparable across organizations of
   the same bus; exact delay in requests when every client weight is 1
   (then the gain is the unweighted loss rate). *)
let delay_of ~expected ~offered ~loss = expected /. Float.max 1e-12 (offered -. loss)

let compare_sharing config traffic =
  let result, payload = solve config traffic in
  let topo = Traffic.topology traffic in
  (* Compare the buses marked shared; with none marked, compare them all
     (the CLI's mesh constructor path marks every router). *)
  let is_target =
    match Topology.shared_buses topo with
    | [] -> fun _ -> true
    | marked -> fun bus -> List.mem bus marked
  in
  let entries = ref [] in
  let skipped = ref [] in
  Array.iteri
    (fun i (s : subsystem_solution) ->
      let sub = Bus_model.subsystem s.model in
      let bus = sub.Splitting.bus in
      if is_target bus then begin
        let name = sub.Splitting.bus_name in
        let loaded = Bus_model.loaded_clients s.model in
        let mu = sub.Splitting.service_rate in
        let offered =
          Array.fold_left (fun acc c -> acc +. c.Bus_model.arrival_rate) 0. loaded
        in
        let capacity = Bus_model.total_levels s.model in
        (* Static partition at its solved levels, unconstrained: the best
           loss the partition itself allows — [run]'s price-0 line for this
           subsystem, or else a solve of its own.  When [run] answered
           with that very policy, its answer and occupancy serve as they
           are. *)
        let static_eval () =
          let ctmdp = Bus_model.ctmdp s.model in
          let with_occupancy st =
            (st, Bus_model.occupancy_distribution s.model st.Constrained.stationary)
          in
          let unconstrained =
            match payload.c_free.(i) with
            | Some line when reusable s.solved line -> Some (s.solved, s.occupancy)
            | Some line ->
                Some
                  (with_occupancy
                     (Constrained.deterministic_solved ctmdp line.Policy_iteration.choice))
            | None -> (
                match solve_blocks [| ctmdp |] with
                | Some (a, _, _), _ -> Some (with_occupancy a.Constrained.components.(0))
                | None, _ -> None)
          in
          match unconstrained with
          | Some (st, occupancy) ->
              let expected =
                Array.fold_left
                  (fun acc dist ->
                    let e = ref 0. in
                    Array.iteri (fun l p -> e := !e +. (float_of_int l *. p)) dist;
                    acc +. !e)
                  0. occupancy
              in
              Ok (st.Constrained.gain, expected)
          | None -> Error "static solve failed"
        in
        (* The pool's unconstrained optimum: [run]'s pool and its price-0
           line (its bounded answer when that is the same policy), or else
           a pool built and solved here (under [Static], on a router [run]
           did not re-solve, or when [run]'s slack test did not
           complete). *)
        let damq_eval () =
          let unconstrained =
            match payload.c_damq.(i) with
            | Some (Ok { pool; answer; pool_free = Some line; _ }) when reusable answer line ->
                Ok (pool, answer)
            | Some (Ok { pool; pool_free = Some line; _ }) ->
                Ok
                  ( pool,
                    Constrained.deterministic_solved (Bus_model.Shared.ctmdp pool)
                      line.Policy_iteration.choice )
            | _ -> Result.map (fun d -> (d.pool, d.answer)) (damq_reeval config s)
          in
          Result.map
            (fun (pool, d) ->
              ( d.Constrained.gain,
                Bus_model.Shared.expected_total pool d.Constrained.stationary ))
            unconstrained
        in
        match (static_eval (), damq_eval ()) with
        | Ok (static_loss, static_en), Ok (damq_loss, damq_en) ->
            (* Decoupled baseline: each client as its own M/M/1/levels
               queue at full bus rate — no arbitration contention, hence
               optimistic. *)
            let separate_loss = ref 0. in
            let separate_en = ref 0. in
            Array.iter
              (fun (c : Bus_model.client_model) ->
                let lambda = c.Bus_model.arrival_rate and k = c.Bus_model.levels in
                separate_loss :=
                  !separate_loss +. Birth_death.Mm1k.loss_rate ~lambda ~mu ~k;
                separate_en :=
                  !separate_en +. Birth_death.Mm1k.mean_customers ~lambda ~mu ~k)
              loaded;
            entries :=
              {
                cmp_bus = bus;
                cmp_bus_name = name;
                cmp_clients = Array.length loaded;
                cmp_capacity = capacity;
                static_loss;
                damq_loss = Float.min damq_loss static_loss;
                separate_loss = !separate_loss;
                static_delay = delay_of ~expected:static_en ~offered ~loss:static_loss;
                damq_delay = delay_of ~expected:damq_en ~offered ~loss:damq_loss;
                separate_delay =
                  delay_of ~expected:!separate_en ~offered ~loss:!separate_loss;
              }
              :: !entries;
        | Error msg, _ | _, Error msg -> skipped := (name, msg) :: !skipped
      end)
    result.solutions;
  let entries = List.rev !entries in
  let total f = List.fold_left (fun acc e -> acc +. f e) 0. entries in
  ( result,
    {
      entries;
      skipped = List.rev !skipped;
      total_static_loss = total (fun e -> e.static_loss);
      total_damq_loss = total (fun e -> e.damq_loss);
      total_separate_loss = total (fun e -> e.separate_loss);
    } )

let pp_sharing_report ppf r =
  Format.fprintf ppf "@[<v>sharing comparison: %d bus(es)%s" (List.length r.entries)
    (if r.skipped = [] then "" else Printf.sprintf ", %d skipped" (List.length r.skipped));
  List.iter
    (fun e ->
      Format.fprintf ppf
        "@,  %s: %d clients, pool %d levels | loss static %.4g damq %.4g separate %.4g | \
         delay static %.4g damq %.4g separate %.4g"
        e.cmp_bus_name e.cmp_clients e.cmp_capacity e.static_loss e.damq_loss e.separate_loss
        e.static_delay e.damq_delay e.separate_delay)
    r.entries;
  List.iter (fun (name, why) -> Format.fprintf ppf "@,  %s: skipped (%s)" name why) r.skipped;
  Format.fprintf ppf "@,  totals: loss static %.4g damq %.4g separate %.4g@]"
    r.total_static_loss r.total_damq_loss r.total_separate_loss

let requirements_of_solution r =
  Array.to_list r.solutions |> List.concat_map (fun s -> s.requirements)

let pp_summary ppf r =
  Format.fprintf ppf
    "@[<v>sizing: budget %d words over %d buffers, %d subsystem(s), predicted loss rate %.4g@,\
     granularity %.3g words/level, budget bound %s@]"
    r.config.budget
    (Buffer_alloc.num_buffers r.allocation)
    (Array.length r.solutions) r.predicted_loss_rate r.words_per_level
    (if not r.budget_bound_active then "fallback (unconstrained)"
     else if r.bound_price > 0. then
       Printf.sprintf "binding (price %.4g per level)" r.bound_price
     else "slack (price 0)");
  if not (Resilience.health_ok r.health) then
    Format.fprintf ppf "@\n%a" Resilience.pp_health r.health
