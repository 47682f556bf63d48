module Stats = Bufsize_numeric.Stats
module Rng = Bufsize_prob.Rng
module Obs = Bufsize_obs.Obs

let m_replications = Obs.counter "sim.replications"

type aggregate = {
  replications : int;
  per_proc_lost : Stats.t array;
  per_proc_offered : Stats.t array;
  per_proc_latency : Stats.t array;
  total_lost : Stats.t;
  total_offered : Stats.t;
  loss_fraction : Stats.t;
  mean_sojourn : Stats.t;
}

let make_empty nprocs replications =
  {
    replications;
    per_proc_lost = Array.init nprocs (fun _ -> Stats.create ());
    per_proc_offered = Array.init nprocs (fun _ -> Stats.create ());
    per_proc_latency = Array.init nprocs (fun _ -> Stats.create ());
    total_lost = Stats.create ();
    total_offered = Stats.create ();
    loss_fraction = Stats.create ();
    mean_sojourn = Stats.create ();
  }

let accumulate agg (report : Metrics.report) =
  Array.iteri
    (fun p (s : Metrics.proc_stats) ->
      Stats.add agg.per_proc_lost.(p) (float_of_int s.Metrics.lost);
      Stats.add agg.per_proc_offered.(p) (float_of_int s.Metrics.offered);
      if Float.is_finite s.Metrics.mean_latency then
        Stats.add agg.per_proc_latency.(p) s.Metrics.mean_latency)
    report.Metrics.per_proc;
  Stats.add agg.total_lost (float_of_int (Metrics.total_lost report));
  Stats.add agg.total_offered (float_of_int (Metrics.total_offered report));
  Stats.add agg.loss_fraction (Metrics.loss_fraction report);
  let sj = Metrics.mean_buffer_sojourn report in
  if Float.is_finite sj then Stats.add agg.mean_sojourn sj

let domains () =
  match Sys.getenv_opt "BUFSIZE_NUM_DOMAINS" with
  | None -> Domain.recommended_domain_count ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None ->
          invalid_arg "Replicate.domains: BUFSIZE_NUM_DOMAINS must be a positive integer")

(* [f 0 .. f (n-1)] on [min n (domains ())] domains, the caller's among
   them.  Each domain claims the next index from one counter and writes
   result [i] into slot [i], so the output does not depend on the domain
   count.  The first exception, from an item or a failed [Domain.spawn],
   stops further claims and is re-raised once every spawned domain is
   joined.  Spawned domains parent their spans under the caller's. *)
let fork_join n f =
  let out = Array.make n None in
  let next = Atomic.make 0 and error = Atomic.make None in
  let fail e = ignore (Atomic.compare_and_set error None (Some (e, Printexc.get_raw_backtrace ()))) in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n && Option.is_none (Atomic.get error) then begin
      (try out.(i) <- Some (f i) with e -> fail e);
      work ()
    end
  in
  let ctx = Obs.current_context () in
  let spawned = ref [] in
  (try
     for _ = 2 to Int.min n (domains ()) do
       spawned := Domain.spawn (fun () -> Obs.with_context ctx work) :: !spawned
     done
   with e -> fail e);
  work ();
  List.iter Domain.join !spawned;
  match Atomic.get error with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> Array.map Option.get out

let run ?(replications = 10) spec =
  if replications <= 0 then invalid_arg "Replicate.run: need at least one replication";
  let nprocs =
    Bufsize_soc.Topology.num_processors (Bufsize_soc.Traffic.topology spec.Sim_run.traffic)
  in
  (* Each replication builds its RNG from a hashed (seed, index) pair
     inside [Sim_run.run] — a fully isolated stream per item, so the
     replications share nothing.  The reports are folded into the
     accumulators in replication order on the caller's domain, so every
     aggregate is bitwise identical whatever the domain count. *)
  let reports =
    fork_join replications (fun i ->
        Obs.incr m_replications;
        Obs.span ~name:"sim.replication"
          ~attrs:(fun () -> [ ("replication", string_of_int i) ])
          (fun () ->
            Sim_run.run { spec with Sim_run.seed = Rng.derive_seed spec.Sim_run.seed i }))
  in
  let agg = make_empty nprocs replications in
  Array.iter (accumulate agg) reports;
  agg

let mean_per_proc_lost agg = Array.map Stats.mean agg.per_proc_lost

let pp ppf agg =
  Format.fprintf ppf "@[<v>%d replications: total lost %.1f +- %.1f (of %.1f offered, %.2f%%)"
    agg.replications (Stats.mean agg.total_lost)
    (Stats.std_error agg.total_lost)
    (Stats.mean agg.total_offered)
    (100. *. Stats.mean agg.loss_fraction);
  Array.iteri
    (fun p s -> Format.fprintf ppf "@,  proc %2d: mean lost %.1f" (p + 1) (Stats.mean s))
    agg.per_proc_lost;
  Format.fprintf ppf "@]"
