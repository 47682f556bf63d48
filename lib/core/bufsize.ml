module Obs = Bufsize_obs.Obs
module Resilience = Bufsize_resilience.Resilience
module Json = Bufsize_json.Json
module Serve = Bufsize_serve.Serve
module Numeric = Bufsize_numeric
module Prob = Bufsize_prob
module Mdp = Bufsize_mdp
module Topology = Bufsize_soc.Topology
module Traffic = Bufsize_soc.Traffic
module Splitting = Bufsize_soc.Splitting
module Bus_model = Bufsize_soc.Bus_model
module Buffer_alloc = Bufsize_soc.Buffer_alloc
module Sizing = Bufsize_soc.Sizing
module Monolithic = Bufsize_soc.Monolithic
module San_bridge = Bufsize_soc.San_bridge
module Dot = Bufsize_soc.Dot
module Spec_parser = Bufsize_soc.Spec_parser
module Fig1 = Bufsize_soc.Fig1
module Netproc = Bufsize_soc.Netproc
module Amba = Bufsize_soc.Amba
module Catalogue = Bufsize_soc.Catalogue
module Arbiter = Bufsize_sim.Arbiter
module Metrics = Bufsize_sim.Metrics
module Sim_run = Bufsize_sim.Sim_run
module Replicate = Bufsize_sim.Replicate

type experiment = {
  traffic : Traffic.t;
  sizing_config : Sizing.config;
  arbiter : Arbiter.t;
  horizon : float;
  warmup : float;
  replications : int;
  seed : int;
  timeout_factor : float;
}

let experiment ?(horizon = 2000.) ?(warmup = 100.) ?(replications = 10) ?(seed = 1)
    ?(arbiter = Arbiter.Longest_queue) ?(timeout_factor = 3.0) ?config ~budget traffic =
  let sizing_config =
    match config with Some c -> { c with Sizing.budget } | None -> Sizing.default_config ~budget
  in
  { traffic; sizing_config; arbiter; horizon; warmup; replications; seed; timeout_factor }

type variant = {
  label : string;
  allocation : Buffer_alloc.t;
  timeout : Sim_run.timeout_policy option;
  aggregate : Replicate.aggregate;
}

type outcome = {
  exp_config : experiment;
  sizing : Sizing.result;
  before : variant;
  after : variant;
  timeout_variant : variant;
  improvement_vs_before : float;
  improvement_vs_timeout : float;
}

let run_variant exp_config ~label ~allocation ~(timeout : Sim_run.timeout_policy option) =
  let spec =
    {
      Sim_run.traffic = exp_config.traffic;
      allocation;
      arbiter = exp_config.arbiter;
      timeout;
      horizon = exp_config.horizon;
      warmup = exp_config.warmup;
      seed = exp_config.seed;
    }
  in
  let aggregate = Replicate.run ~replications:exp_config.replications spec in
  { label; allocation; timeout; aggregate }

let size_and_evaluate exp_config =
  let budget = exp_config.sizing_config.Sizing.budget in
  let uniform = Buffer_alloc.uniform exp_config.traffic ~budget in
  let before = run_variant exp_config ~label:"before (uniform)" ~allocation:uniform ~timeout:None in
  let sizing = Sizing.run exp_config.sizing_config exp_config.traffic in
  let after =
    run_variant exp_config ~label:"after (CTMDP sizing)" ~allocation:sizing.Sizing.allocation
      ~timeout:None
  in
  (* The paper's timeout threshold: "the average time spent by a request in
     a buffer" — measured per buffer on a calibration run of the baseline
     system (buffers differ in load by orders of magnitude, so a global
     average would starve the hot ones). *)
  let calibration =
    Sim_run.run
      {
        Sim_run.traffic = exp_config.traffic;
        allocation = uniform;
        arbiter = exp_config.arbiter;
        timeout = None;
        horizon = exp_config.horizon;
        warmup = exp_config.warmup;
        seed = exp_config.seed;
      }
  in
  let global_mean = Metrics.mean_buffer_sojourn calibration in
  let per_buffer bus client =
    let found =
      Array.find_opt
        (fun (b : Metrics.buffer_stats) ->
          b.Metrics.bus = bus && Traffic.client_equal b.Metrics.client client)
        calibration.Metrics.buffers
    in
    match found with
    | Some b when Float.is_finite b.Metrics.mean_sojourn && b.Metrics.mean_sojourn > 0. ->
        exp_config.timeout_factor *. b.Metrics.mean_sojourn
    | Some _ | None -> exp_config.timeout_factor *. global_mean
  in
  let timeout_variant =
    run_variant exp_config ~label:"timeout policy" ~allocation:uniform
      ~timeout:(Some (Sim_run.Per_buffer per_buffer))
  in
  let mean_lost v = Numeric.Stats.mean v.aggregate.Replicate.total_lost in
  let improvement base v =
    let b = mean_lost base in
    if b <= 0. then 0. else (b -. mean_lost v) /. b
  in
  {
    exp_config;
    sizing;
    before;
    after;
    timeout_variant;
    improvement_vs_before = improvement before after;
    improvement_vs_timeout = improvement timeout_variant after;
  }

let profiled_sizing ?(rounds = 3) exp_config =
  if rounds < 1 then invalid_arg "Bufsize.profiled_sizing: need at least one round";
  let simulate allocation =
    Sim_run.run
      {
        Sim_run.traffic = exp_config.traffic;
        allocation;
        arbiter = exp_config.arbiter;
        timeout = None;
        horizon = exp_config.horizon;
        warmup = exp_config.warmup;
        seed = exp_config.seed;
      }
  in
  let rates_of (report : Metrics.report) bus client =
    Array.find_opt
      (fun (b : Metrics.buffer_stats) ->
        b.Metrics.bus = bus && Traffic.client_equal b.Metrics.client client)
      report.Metrics.buffers
    |> Option.map (fun (b : Metrics.buffer_stats) ->
           float_of_int b.Metrics.arrivals /. report.Metrics.horizon)
  in
  let rec loop k sizing losses =
    let report = simulate sizing.Sizing.allocation in
    let losses = float_of_int (Metrics.total_lost report) :: losses in
    if k >= rounds then (sizing, List.rev losses)
    else begin
      let resized =
        Sizing.run ~measured_rates:(rates_of report) exp_config.sizing_config exp_config.traffic
      in
      loop (k + 1) resized losses
    end
  in
  loop 1 (Sizing.run exp_config.sizing_config exp_config.traffic) []

(* Discretize simulated queue lengths (words) onto the CTMDP's model levels
   and sample the optimal policy's action.  The mapping mirrors the sizing
   granularity: one model level per [words_per_level] words, clamped to the
   client's level range.  The simulator's view lists clients in the same
   deterministic order as the subsystem (both come from
   [Traffic.clients_of_bus]), so positions can be matched by client. *)
let stochastic_arbiter (sizing : Sizing.result) =
  let per_bus = Hashtbl.create 8 in
  Array.iter
    (fun (sol : Sizing.subsystem_solution) ->
      let model = sol.Sizing.model in
      let sub = Bus_model.subsystem model in
      Hashtbl.replace per_bus sub.Splitting.bus
        (model, sol.Sizing.solved.Mdp.Constrained.policy))
    sizing.Sizing.solutions;
  let g = Float.max 1e-9 sizing.Sizing.words_per_level in
  let position_of sub (cm : Bus_model.client_model) =
    let rec scan i = function
      | [] -> None
      | (c, _) :: rest ->
          if Traffic.client_equal c cm.Bus_model.client then Some i else scan (i + 1) rest
    in
    scan 0 sub.Splitting.clients
  in
  let f (view : Arbiter.view) rng =
    match Hashtbl.find_opt per_bus view.Arbiter.bus with
    | None -> None
    | Some (model, policy) ->
        let sub = Bus_model.subsystem model in
        let loaded = Bus_model.loaded_clients model in
        let occupancy =
          Array.map
            (fun (cm : Bus_model.client_model) ->
              match position_of sub cm with
              | None -> 0
              | Some i when i >= Array.length view.Arbiter.queue_lengths -> 0
              | Some i ->
                  let words = view.Arbiter.queue_lengths.(i) in
                  Int.min cm.Bus_model.levels
                    (int_of_float (Float.round (float_of_int words /. g))))
            loaded
        in
        let state = Bus_model.encode model occupancy in
        let action = Mdp.Policy.sample_action rng policy state in
        (* Action labels are "serve<i>" (index over loaded clients) or
           "idle"; map back to the view's client position. *)
        let label = Mdp.Ctmdp.action_label (Bus_model.ctmdp model) state action in
        if String.length label <= 5 || String.sub label 0 5 <> "serve" then None
        else
          Option.bind
            (int_of_string_opt (String.sub label 5 (String.length label - 5)))
            (fun li -> if li < Array.length loaded then position_of sub loaded.(li) else None)
  in
  Arbiter.Custom ("ctmdp-stochastic", f)

let per_proc_mean_losses v = Replicate.mean_per_proc_lost v.aggregate

let pp_outcome ppf o =
  let topo = Traffic.topology o.exp_config.traffic in
  let np = Topology.num_processors topo in
  let b = per_proc_mean_losses o.before in
  let a = per_proc_mean_losses o.after in
  let t = per_proc_mean_losses o.timeout_variant in
  Format.fprintf ppf "@[<v>per-processor mean losses over %d replications:"
    o.exp_config.replications;
  Format.fprintf ppf "@,  %-6s %10s %10s %10s" "proc" "before" "after" "timeout";
  for p = 0 to np - 1 do
    Format.fprintf ppf "@,  %-6s %10.1f %10.1f %10.1f"
      (Topology.processor topo p).Topology.proc_name b.(p) a.(p) t.(p)
  done;
  let mean v = Numeric.Stats.mean v.aggregate.Replicate.total_lost in
  Format.fprintf ppf "@,  total: before %.1f, after %.1f, timeout %.1f" (mean o.before)
    (mean o.after) (mean o.timeout_variant);
  Format.fprintf ppf "@,  improvement vs constant sizing: %.1f%%"
    (100. *. o.improvement_vs_before);
  Format.fprintf ppf "@,  improvement vs timeout policy:  %.1f%%"
    (100. *. o.improvement_vs_timeout);
  Format.fprintf ppf "@]"
