(* A job is an array of independent items claimed by index from a shared
   atomic counter.  Workers are persistent domains that sleep between jobs;
   a generation counter tells them a new job was published.  The caller's
   domain participates in every job, so a pool of size [k] really applies
   [k] domains to the work. *)

type job = {
  run : int -> unit;  (* process item [i]; must not raise (pre-wrapped) *)
  count : int;
  chunk : int;  (* indices claimed per steal; >= 1 *)
  next : int Atomic.t;  (* next unclaimed index *)
  remaining : int Atomic.t;  (* items not yet finished *)
  fin_m : Mutex.t;
  fin_cv : Condition.t;
  mutable fin : bool;
}

type t = {
  total : int;  (* worker domains + the calling domain *)
  m : Mutex.t;
  cv : Condition.t;
  mutable gen : int;  (* bumped when [current] is published *)
  mutable current : job option;
  mutable stop : bool;
  busy : Mutex.t;  (* held by the caller for a whole map; try-locked *)
  mutable workers : unit Domain.t array;
}

(* Claim [chunk] consecutive indices per fetch_and_add instead of one:
   with fine-grained items the single shared counter was the contention
   point that made small pools slower than sequential (every item bounced
   the counter's cache line across domains).  Item order within a block is
   ascending, and block boundaries do not affect results — each item still
   writes only its own slot. *)
let steal job =
  let rec loop () =
    let start = Atomic.fetch_and_add job.next job.chunk in
    if start < job.count then begin
      let stop = Int.min job.count (start + job.chunk) in
      for i = start to stop - 1 do
        job.run i
      done;
      let block = stop - start in
      if Atomic.fetch_and_add job.remaining (-block) = block then begin
        Mutex.lock job.fin_m;
        job.fin <- true;
        Condition.broadcast job.fin_cv;
        Mutex.unlock job.fin_m
      end;
      loop ()
    end
  in
  loop ()

let worker_loop pool =
  let rec loop last_gen =
    Mutex.lock pool.m;
    while (not pool.stop) && pool.gen = last_gen do
      Condition.wait pool.cv pool.m
    done;
    if pool.stop then Mutex.unlock pool.m
    else begin
      let gen = pool.gen and job = pool.current in
      Mutex.unlock pool.m;
      (match job with Some j -> steal j | None -> ());
      loop gen
    end
  in
  loop 0

(* More domains than cores is pure overhead under OCaml 5's stop-the-world
   minor GC: on a small container a 4-domain pool ran slower than a
   1-domain one for exactly this reason.  [create] therefore caps the
   pool at the hardware's recommended domain count unless the caller
   explicitly asks to exceed it, e.g. tests that must exercise real
   multi-domain execution on any machine. *)
let create ?(oversubscribe = false) total =
  if total < 1 then invalid_arg "Pool.create: need at least one domain";
  let total =
    if oversubscribe then total
    else Int.min total (Int.max 1 (Domain.recommended_domain_count ()))
  in
  let pool =
    {
      total;
      m = Mutex.create ();
      cv = Condition.create ();
      gen = 0;
      current = None;
      stop = false;
      busy = Mutex.create ();
      workers = [||];
    }
  in
  pool.workers <- Array.init (total - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let size pool = pool.total

let shutdown pool =
  Mutex.lock pool.m;
  pool.stop <- true;
  Condition.broadcast pool.cv;
  Mutex.unlock pool.m;
  Array.iter Domain.join pool.workers;
  pool.workers <- [||]

let default_size () =
  match Sys.getenv_opt "BUFSIZE_NUM_DOMAINS" with
  | None -> Domain.recommended_domain_count ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None ->
          invalid_arg "Pool.default_size: BUFSIZE_NUM_DOMAINS must be a positive integer")

let default_m = Mutex.create ()
let default_p = ref None

let default () =
  Mutex.lock default_m;
  let p =
    match !default_p with
    | Some p -> p
    | None ->
        let p = create (default_size ()) in
        default_p := Some p;
        p
  in
  Mutex.unlock default_m;
  p

(* Steal granularity: an explicit [?chunk] wins, else a heuristic giving
   each domain ~8 steals per job — coarse enough to keep counter traffic
   negligible, fine enough that uneven item costs still balance. *)
let resolve_chunk pool ~chunk n =
  match chunk with
  | Some c when c >= 1 -> c
  | Some _ -> invalid_arg "Pool: chunk must be a positive integer"
  | None -> Int.max 1 (n / (8 * pool.total))

(* Run [f 0 .. f (n-1)] on the pool.  Sequential when the pool has one
   domain, was shut down, or is already running a job (nested calls from a
   worker's item function, or concurrent callers) — the try-lock on [busy]
   makes re-entrancy a graceful degradation instead of a deadlock. *)
let run_items ?chunk pool f n =
  if n > 0 then begin
    if pool.total = 1 || n = 1 || Array.length pool.workers = 0 || not (Mutex.try_lock pool.busy)
    then
      for i = 0 to n - 1 do
        f i
      done
    else begin
      let error = Atomic.make None in
      (* Spans opened inside pooled items run on worker domains, where the
         caller's span stack is invisible; capturing the caller's span
         context here and restoring it around each item parents them
         correctly (and costs nothing when tracing is off). *)
      let ctx = Bufsize_obs.Obs.current_context () in
      (* The caller may be inside a per-request telemetry capture; its
         sink travels with the job the same way the span parent does, so
         spans from pooled items land in the request's subtree. *)
      let snk = Bufsize_obs.Obs.current_sink () in
      (* Likewise for the ambient solve deadline: it is domain-local, so a
         worker domain would otherwise run the caller's items with no
         deadline at all and a budget-bounded solve could overrun by
         exactly the parallel fraction. *)
      let ambient = Bufsize_resilience.Resilience.ambient_budget () in
      let with_ambient g =
        match ambient with
        | None -> g ()
        | Some b -> Bufsize_resilience.Resilience.with_ambient_budget b g
      in
      let guarded i =
        if Atomic.get error = None then
          try
            with_ambient (fun () ->
                Bufsize_obs.Obs.with_sink snk (fun () ->
                    Bufsize_obs.Obs.with_context ctx (fun () -> f i)))
          with e -> ignore (Atomic.compare_and_set error None (Some e))
      in
      let job =
        {
          run = guarded;
          count = n;
          chunk = resolve_chunk pool ~chunk n;
          next = Atomic.make 0;
          remaining = Atomic.make n;
          fin_m = Mutex.create ();
          fin_cv = Condition.create ();
          fin = false;
        }
      in
      Mutex.lock pool.m;
      pool.current <- Some job;
      pool.gen <- pool.gen + 1;
      Condition.broadcast pool.cv;
      Mutex.unlock pool.m;
      steal job;
      Mutex.lock job.fin_m;
      while not job.fin do
        Condition.wait job.fin_cv job.fin_m
      done;
      Mutex.unlock job.fin_m;
      Mutex.lock pool.m;
      pool.current <- None;
      Mutex.unlock pool.m;
      Mutex.unlock pool.busy;
      match Atomic.get error with Some e -> raise e | None -> ()
    end
  end

let mapi_array ?pool ?chunk f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let pool = match pool with Some p -> p | None -> default () in
    if pool.total = 1 || n = 1 then Array.mapi f a
    else begin
      (* An option buffer keeps the write type-safe for any ['b] (a raw
         [Array.make] with a dummy would misrepresent float arrays). *)
      let out = Array.make n None in
      run_items ?chunk pool (fun i -> out.(i) <- Some (f i a.(i))) n;
      Array.map (function Some v -> v | None -> assert false) out
    end
  end

let map_array ?pool ?chunk f a = mapi_array ?pool ?chunk (fun _ x -> f x) a
