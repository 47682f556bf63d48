(* Telemetry core.  Three design rules govern everything here:

   1. The disabled path costs one atomic load and a branch, and does not
      allocate (the test suite asserts this with a Gc.minor_words
      delta), so a disabled [span] or metric write costs nothing
      measurable wherever it sits.
   2. Storage is sized to its traffic.  Spans are many per request, so
      their buffers are domain-local (Domain.DLS) and a recording domain
      never waits.  Every production metric write is once per solve,
      run, replication or request, so a counter is one atomic, a
      histogram one record under its own mutex, and the flight ring one
      array under one mutex.
   3. Telemetry only observes.  Nothing in the numeric pipeline may
      read a value produced here, so results are bitwise-identical with
      tracing on or off. *)

external now_ns : unit -> int64 = "bufsize_obs_now_ns"

(* ------------------------------------------------------------ enabling *)

(* [spans_on] is the single switch the hot path reads.  It is the OR of
   two slow-path inputs: the user-facing enable (BUFSIZE_TRACE and
   friends) and a refcount of live per-request captures (see the capture
   section below) — a telemetry-enabled request must make [span] record
   even when global tracing is off.  Both inputs change only under
   [enable_m]; the hot path still pays one atomic load. *)
let spans_on = Atomic.make false
let metrics_on = Atomic.make false

(* User tracing routes spans to the per-domain buffers; captures route
   them to their sink only.  The buffer path therefore checks this
   second atomic so a daemon serving telemetry requests does not slowly
   fill (and then permanently saturate) the global span buffers. *)
let user_spans_on = Atomic.make false

let enable_m = Mutex.create ()
let captures_live = ref 0

let spans_enabled () = Atomic.get user_spans_on
let metrics_enabled () = Atomic.get metrics_on

(* Trace epoch: exported timestamps are relative to the last
   [enable_spans] so traces start near t=0. *)
let epoch_ns = Atomic.make 0L

let recompute_spans_on () =
  Atomic.set spans_on (Atomic.get user_spans_on || !captures_live > 0)

let enable_spans () =
  Mutex.lock enable_m;
  Atomic.set epoch_ns (now_ns ());
  Atomic.set user_spans_on true;
  recompute_spans_on ();
  Mutex.unlock enable_m

let enable_metrics () = Atomic.set metrics_on true

let disable () =
  Mutex.lock enable_m;
  Atomic.set user_spans_on false;
  recompute_spans_on ();
  Mutex.unlock enable_m;
  Atomic.set metrics_on false

(* ------------------------------------------------------------- spans *)

type span_record = {
  sid : int;
  sparent : int;
  sname : string;
  strack : int;
  sstart_ns : int64;
  sdur_ns : int64;
  salloc_minor_w : float;
  sattrs : (string * string) list;
}

(* A capture sink: the per-request span collector.  One request installs
   a sink on its worker domain; spans closing there under the sink are
   appended here instead of — or in addition to — the global per-domain
   buffers.  Only the installing domain ever sees the sink, so it needs
   no lock. *)
type sink = {
  mutable k_spans : span_record list;  (* newest first *)
  k_cap : int;
  mutable k_n : int;
  mutable k_dropped : int;
}

(* Per-domain span state.  Mutated only by the owning domain; the
   exporter reads it when the pipeline is quiescent (end of run). *)
type dstate = {
  did : int;
  mutable open_ : int list;  (* ids of open spans, innermost first *)
  mutable ctx : int;  (* propagated parent used when [open_] is empty *)
  mutable sink_ : sink option;  (* live capture on this domain, if any *)
  mutable completed : span_record list;  (* newest first *)
  mutable nspans : int;
  mutable hwm : int;  (* high-water mark of [nspans] since the last reset *)
  mutable dropped : int;
}

let max_spans_per_domain = 1 lsl 17

let new_dstate did =
  {
    did;
    open_ = [];
    ctx = 0;
    sink_ = None;
    completed = [];
    nspans = 0;
    hwm = 0;
    dropped = 0;
  }

(* The registry holds the record of every live domain that has recorded,
   plus [retired]: when a spawned domain ends, its completed spans and
   counts move into [retired] and its record leaves the registry.  Domain
   ids are never reused and replications fork fresh domains on every
   call, so without this a long traced process would keep one record per
   domain it ever ran.  [retired] is mutated only under [registry_m] and
   keeps the per-domain cap: spans beyond it count as dropped. *)
let registry_m = Mutex.create ()
let retired = new_dstate (-1)
let registry : dstate list ref = ref [ retired ]

let retire ds =
  Mutex.lock registry_m;
  registry := List.filter (fun d -> d != ds) !registry;
  let excess = Int.max 0 (ds.nspans - (max_spans_per_domain - retired.nspans)) in
  (* [completed] is newest first: past the cap, the newest are dropped,
     as a full live buffer would drop them. *)
  let kept = List.filteri (fun i _ -> i >= excess) ds.completed in
  retired.completed <- kept @ retired.completed;
  retired.nspans <- retired.nspans + ds.nspans - excess;
  retired.hwm <- Int.max retired.hwm (Int.max ds.hwm retired.nspans);
  retired.dropped <- retired.dropped + ds.dropped + excess;
  Mutex.unlock registry_m

let dstate_key =
  Domain.DLS.new_key (fun () ->
      let ds = new_dstate (Domain.self () :> int) in
      Mutex.lock registry_m;
      registry := ds :: !registry;
      Mutex.unlock registry_m;
      if not (Domain.is_main_domain ()) then Domain.at_exit (fun () -> retire ds);
      ds)

let dstate () = Domain.DLS.get dstate_key

let next_id = Atomic.make 1

let record_span attrs name f =
  let ds = dstate () in
  let id = Atomic.fetch_and_add next_id 1 in
  let parent = match ds.open_ with p :: _ -> p | [] -> ds.ctx in
  ds.open_ <- id :: ds.open_;
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = now_ns () in
      let w1 = Gc.minor_words () in
      (match ds.open_ with _ :: tl -> ds.open_ <- tl | [] -> ());
      let to_buffer = Atomic.get user_spans_on in
      let to_sink = ds.sink_ in
      if to_buffer || to_sink <> None then begin
        let sattrs = match attrs with None -> [] | Some g -> ( try g () with _ -> []) in
        let r =
          {
            sid = id;
            sparent = parent;
            sname = name;
            strack = ds.did;
            sstart_ns = t0;
            sdur_ns = Int64.sub t1 t0;
            salloc_minor_w = w1 -. w0;
            sattrs;
          }
        in
        (match to_sink with
        | None -> ()
        | Some k ->
            if k.k_n >= k.k_cap then k.k_dropped <- k.k_dropped + 1
            else begin
              k.k_spans <- r :: k.k_spans;
              k.k_n <- k.k_n + 1
            end);
        if to_buffer then begin
          if ds.nspans >= max_spans_per_domain then ds.dropped <- ds.dropped + 1
          else begin
            ds.completed <- r :: ds.completed;
            ds.nspans <- ds.nspans + 1;
            if ds.nspans > ds.hwm then ds.hwm <- ds.nspans
          end
        end
      end)
    (fun () -> f id)

let span ?attrs ~name f =
  if not (Atomic.get spans_on) then f () else record_span attrs name (fun _ -> f ())

let span_with_id ?attrs ~name f =
  if not (Atomic.get spans_on) then f 0 else record_span attrs name f

let current_context () =
  if not (Atomic.get spans_on) then 0
  else
    let ds = dstate () in
    match ds.open_ with p :: _ -> p | [] -> ds.ctx

let with_context parent f =
  if parent = 0 || not (Atomic.get spans_on) then f ()
  else begin
    let ds = dstate () in
    let saved = ds.ctx in
    ds.ctx <- parent;
    Fun.protect ~finally:(fun () -> ds.ctx <- saved) f
  end

(* Readers hold [registry_m], which orders them after the retirement of
   every domain already joined. *)
let fold_states f init =
  Mutex.lock registry_m;
  let r = List.fold_left f init !registry in
  Mutex.unlock registry_m;
  r

let recorded_spans () =
  Mutex.lock registry_m;
  let all = List.concat_map (fun ds -> ds.completed) !registry in
  Mutex.unlock registry_m;
  List.sort (fun a b -> Int64.compare a.sstart_ns b.sstart_ns) all

let dropped_spans () = fold_states (fun acc ds -> acc + ds.dropped) 0
let span_high_water () = fold_states (fun acc ds -> Int.max acc ds.hwm) 0
let span_states () = fold_states (fun acc _ -> acc + 1) 0

(* ----------------------------------------------------------- capture *)

let capture_begin () =
  Mutex.lock enable_m;
  incr captures_live;
  recompute_spans_on ();
  Mutex.unlock enable_m

let capture_end () =
  Mutex.lock enable_m;
  captures_live := Int.max 0 (!captures_live - 1);
  recompute_spans_on ();
  Mutex.unlock enable_m

let with_capture ?(max_spans = 4096) f =
  let k = { k_spans = []; k_cap = Int.max 1 max_spans; k_n = 0; k_dropped = 0 } in
  let ds = dstate () in
  let saved = ds.sink_ in
  ds.sink_ <- Some k;
  capture_begin ();
  let result =
    Fun.protect
      ~finally:(fun () ->
        capture_end ();
        ds.sink_ <- saved)
      f
  in
  let spans = List.sort (fun a b -> Int64.compare a.sstart_ns b.sstart_ns) k.k_spans in
  (result, spans, k.k_dropped)

(* ------------------------------------------------------------ metrics *)

(* Every production write is once per solve, run, replication or
   request, so a metric is one cell: a counter is one atomic, a
   histogram one record under its own mutex.  A snapshot therefore reads
   a count, sum and buckets that agree with each other. *)
type counter = { c_name : string; c_value : int Atomic.t }

type histogram_snapshot = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_bounds : float array;
  h_buckets : int array;
}

let bucket_bounds = [| 1e-12; 1e-10; 1e-8; 1e-6; 1e-4; 1e-2; 1.; 1e2; 1e4 |]

(* A 1-2-5 log series over the millisecond range — the bucket layout for
   request-latency histograms (fixed log buckets, ~3 per decade), fine
   enough that interpolated p50/p95/p99 land within a factor ~2. *)
let latency_ms_bounds =
  [| 0.05; 0.1; 0.2; 0.5; 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 2000.; 5000.; 10000. |]

type histogram = {
  h_name : string;
  h_bounds : float array;
  h_lock : Mutex.t;
  mutable h_n : int;
  mutable h_total : float;
  mutable h_lo : float;
  mutable h_hi : float;
  h_counts : int array;
}

type metric = MCounter of counter | MHistogram of histogram

let metric_name = function MCounter c -> c.c_name | MHistogram h -> h.h_name

let metrics_m = Mutex.create ()
let metrics : metric list ref = ref []  (* reverse registration order *)

(* [same] may itself reject (histogram bounds mismatch), so the unlock
   must survive an exception — a leaked registry lock would deadlock
   every later registration and [reset]. *)
let register name make same =
  Mutex.lock metrics_m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock metrics_m)
    (fun () ->
      match List.find_opt (fun m -> metric_name m = name) !metrics with
      | Some m -> (
          match same m with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf "Obs: metric %S already registered with another kind" name))
      | None ->
          let v = make () in
          metrics := v :: !metrics;
          (match same v with Some x -> x | None -> assert false))

let counter name =
  register name
    (fun () -> MCounter { c_name = name; c_value = Atomic.make 0 })
    (function MCounter c -> Some c | MHistogram _ -> None)

let histogram_with_bounds name bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Obs.histogram_with_bounds: empty bounds";
  for i = 1 to n - 1 do
    if not (bounds.(i - 1) < bounds.(i)) then
      invalid_arg "Obs.histogram_with_bounds: bounds must be strictly increasing"
  done;
  register name
    (fun () ->
      MHistogram
        {
          h_name = name;
          h_bounds = Array.copy bounds;
          h_lock = Mutex.create ();
          h_n = 0;
          h_total = 0.;
          h_lo = Float.infinity;
          h_hi = Float.neg_infinity;
          h_counts = Array.make (n + 1) 0;
        })
    (function
      | MHistogram h ->
          if h.h_bounds = bounds then Some h
          else invalid_arg (Printf.sprintf "Obs: histogram %S registered with other bounds" name)
      | MCounter _ -> None)

let histogram name = histogram_with_bounds name bucket_bounds

let add c n = if Atomic.get metrics_on then ignore (Atomic.fetch_and_add c.c_value n)

let incr c = add c 1

let bucket_of bounds v =
  let rec go i = if i >= Array.length bounds || v <= bounds.(i) then i else go (i + 1) in
  go 0

(* The serve layer's latency histograms must fill even when the global
   metrics switch is off (the daemon's own introspection must not
   require enabling process-wide instrumentation overhead), so it
   observes through this ungated variant.  Nothing between lock and
   unlock can raise. *)
let observe_always h v =
  let b = bucket_of h.h_bounds v in
  Mutex.lock h.h_lock;
  h.h_n <- h.h_n + 1;
  h.h_total <- h.h_total +. v;
  h.h_lo <- Float.min h.h_lo v;
  h.h_hi <- Float.max h.h_hi v;
  h.h_counts.(b) <- h.h_counts.(b) + 1;
  Mutex.unlock h.h_lock

let observe h v = if Atomic.get metrics_on then observe_always h v

let counter_value c = Atomic.get c.c_value

let histogram_value h =
  Mutex.lock h.h_lock;
  let s =
    {
      h_count = h.h_n;
      h_sum = h.h_total;
      h_min = h.h_lo;
      h_max = h.h_hi;
      h_bounds = h.h_bounds;
      h_buckets = Array.copy h.h_counts;
    }
  in
  Mutex.unlock h.h_lock;
  s

(* Quantile estimation from bucket counts.  The rank of q over n samples
   is ceil(q*n) (clamped to [1,n]), the same definition a sorted-sample
   oracle uses, so the estimate always lands in the bucket that holds
   the true order statistic; within the bucket we interpolate linearly
   by rank.  The open-ended first and last buckets borrow the observed
   min/max as their missing edge, which also makes single-bucket
   populations exact at the extremes. *)
let quantile (s : histogram_snapshot) q =
  if s.h_count = 0 then Float.nan
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let rank = Int.max 1 (Int.min s.h_count (int_of_float (Float.ceil (q *. float_of_int s.h_count)))) in
    let nb = Array.length s.h_buckets in
    let rec find i cum =
      if i >= nb - 1 then (i, cum)
      else if cum + s.h_buckets.(i) >= rank then (i, cum)
      else find (i + 1) (cum + s.h_buckets.(i))
    in
    let i, before = find 0 0 in
    let in_bucket = Int.max 1 s.h_buckets.(i) in
    let lo = if i = 0 then s.h_min else Float.max s.h_min s.h_bounds.(i - 1) in
    let hi = if i = nb - 1 then s.h_max else Float.min s.h_max s.h_bounds.(i) in
    let frac = float_of_int (rank - before) /. float_of_int in_bucket in
    if not (Float.is_finite lo && Float.is_finite hi) then Float.max lo (Float.min hi 0.)
    else lo +. (frac *. (hi -. lo))
  end

type metric_value = Counter of string * int | Histogram of string * histogram_snapshot

let metrics_snapshot () =
  Mutex.lock metrics_m;
  let ms = List.rev !metrics in
  Mutex.unlock metrics_m;
  List.map
    (function
      | MCounter c -> Counter (c.c_name, counter_value c)
      | MHistogram h -> Histogram (h.h_name, histogram_value h))
    ms
  (* Synthesized from the span buffers rather than bumped on the span
     hot path: always exact, and costs nothing when nothing is dropped. *)
  @ [ Counter ("obs.spans.dropped", dropped_spans ()) ]

(* -------------------------------------------------------------- reset *)

let reset () =
  Mutex.lock registry_m;
  List.iter
    (fun ds ->
      ds.completed <- [];
      ds.nspans <- 0;
      ds.hwm <- 0;
      ds.dropped <- 0)
    !registry;
  Mutex.unlock registry_m;
  Mutex.lock metrics_m;
  List.iter
    (function
      | MCounter c -> Atomic.set c.c_value 0
      | MHistogram h ->
          Mutex.lock h.h_lock;
          h.h_n <- 0;
          h.h_total <- 0.;
          h.h_lo <- Float.infinity;
          h.h_hi <- Float.neg_infinity;
          Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
          Mutex.unlock h.h_lock)
    !metrics;
  Mutex.unlock metrics_m;
  if Atomic.get spans_on then Atomic.set epoch_ns (now_ns ())

(* ---------------------------------------------------------- exporters *)

(* Span records are printed directly here (the exporters stream large
   traces); metrics go through [Json.t] trees.  String escaping is the
   one shared [Json.escape] either way. *)
module Json = Bufsize_json.Json

let json_escape = Json.escape
let json_str s = Printf.sprintf "\"%s\"" (json_escape s)
let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let rel_us ns = Int64.to_float (Int64.sub ns (Atomic.get epoch_ns)) /. 1e3

let span_args s =
  let kv =
    ("span_id", string_of_int s.sid)
    :: ("parent", string_of_int s.sparent)
    :: ("alloc_minor_words", Printf.sprintf "%.0f" s.salloc_minor_w)
    :: s.sattrs
  in
  String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s:%s" (json_str k) (json_str v)) kv)

(* The GC counts as they stand, without forcing a collection.  On OCaml 5
   [Gc.quick_stat] folds the running domain's allocation into its word
   counts only at a minor collection, so a short run that never collects
   reads 0 words; [Gc.minor_words] and [Gc.counters] include the words
   allocated since, but see only the calling domain.  [quick_stat] sums
   every other domain's last sample and every ended domain's total, so
   the minor word count adds to it the calling domain's minor-heap words
   not yet folded in (the heap's size less its free bytes).  Each count
   is then the larger of that and the live reading: a process whose ended
   domains allocated more than its main one still sees its own
   allocation. *)
let current_gc () =
  let st = Gc.quick_stat () in
  let _, promoted, major = Gc.counters () in
  let young =
    (Gc.get ()).Gc.minor_heap_size - (Gc.get_minor_free () / (Sys.word_size / 8))
  in
  {
    st with
    Gc.minor_words =
      Float.max (st.Gc.minor_words +. float_of_int young) (Gc.minor_words ());
    promoted_words = Float.max st.Gc.promoted_words promoted;
    major_words = Float.max st.Gc.major_words major;
  }

(* [quick_stat] samples the heap size only at a collection, and a live
   major heap is never empty: a [heap_words] of 0 was never measured and
   prints [null]. *)
let gc_tree st =
  let int n = Json.Num (float_of_int n) in
  Json.Obj
    [
      ("minor_words", Json.Num st.Gc.minor_words);
      ("promoted_words", Json.Num st.Gc.promoted_words);
      ("major_words", Json.Num st.Gc.major_words);
      ("minor_collections", int st.Gc.minor_collections);
      ("major_collections", int st.Gc.major_collections);
      ("heap_words", if st.Gc.heap_words = 0 then Json.Null else int st.Gc.heap_words);
    ]

let write_chrome_trace path =
  let spans = recorded_spans () in
  let tracks =
    List.sort_uniq compare (List.map (fun s -> s.strack) spans)
  in
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else out ","
  in
  sep ();
  out "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"bufsize\"}}";
  List.iter
    (fun t ->
      sep ();
      out "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"domain-%d\"}}" t t)
    tracks;
  List.iter
    (fun s ->
      sep ();
      out "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":%s,\"cat\":\"bufsize\",\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}"
        s.strack (json_str s.sname) (rel_us s.sstart_ns)
        (Int64.to_float s.sdur_ns /. 1e3)
        (span_args s))
    spans;
  out "]}";
  close_out oc

let floats a = Json.List (Array.to_list (Array.map (fun x -> Json.Num x) a))
let ints a = Json.List (Array.to_list (Array.map (fun n -> Json.Num (float_of_int n)) a))

(* The fields a histogram shares between the JSONL line and the metrics
   object; [extra] goes between the summary and the buckets. *)
let histogram_fields h extra =
  [
    ("count", Json.Num (float_of_int h.h_count));
    ("sum", Json.Num h.h_sum);
    ("min", Json.Num h.h_min);
    ("max", Json.Num h.h_max);
  ]
  @ extra
  @ [ ("buckets", ints h.h_buckets) ]

let metric_json_line m =
  let head kind n = [ ("type", Json.Str kind); ("name", Json.Str n) ] in
  Json.encode
    (Json.Obj
       (match m with
       | Counter (n, v) -> head "counter" n @ [ ("value", Json.Num (float_of_int v)) ]
       | Histogram (n, h) -> head "histogram" n @ histogram_fields h []))

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"type\":\"span\",\"id\":%d,\"parent\":%d,\"name\":%s,\"track\":%d,\"start_us\":%.3f,\"dur_us\":%.3f,\"alloc_minor_words\":%s,\"attrs\":{%s}}\n"
        s.sid s.sparent (json_str s.sname) s.strack (rel_us s.sstart_ns)
        (Int64.to_float s.sdur_ns /. 1e3)
        (json_float s.salloc_minor_w)
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "%s:%s" (json_str k) (json_str v)) s.sattrs)))
    (recorded_spans ());
  List.iter (fun m -> Printf.fprintf oc "%s\n" (metric_json_line m)) (metrics_snapshot ());
  Printf.fprintf oc "{\"type\":\"gc\",\"stat\":%s}\n" (Json.encode (gc_tree (current_gc ())));
  Printf.fprintf oc "{\"type\":\"dropped_spans\",\"value\":%d}\n" (dropped_spans ());
  close_out oc

let metrics_tree ?(gc = current_gc ()) snapshot =
  let section pick = Json.Obj (List.filter_map pick snapshot) in
  Json.Obj
    [
      ( "counters",
        section (function Counter (n, v) -> Some (n, Json.Num (float_of_int v)) | _ -> None) );
      ( "histograms",
        section (function
          | Histogram (n, h) ->
              let q p = Json.Num (quantile h p) in
              Some
                ( n,
                  Json.Obj
                    (histogram_fields h
                       [
                         ("p50", q 0.50);
                         ("p95", q 0.95);
                         ("p99", q 0.99);
                         ("bounds", floats h.h_bounds);
                       ]) )
          | _ -> None) );
      ("gc", gc_tree gc);
    ]

let metrics_json () = Json.encode (metrics_tree (metrics_snapshot ()))

(* --------------------------------------------- Prometheus exposition *)

(* Text exposition format 0.0.4.  Metric names keep only [a-zA-Z0-9_:];
   counters gain the conventional _total suffix, histograms emit
   cumulative le-buckets plus _sum/_count.  Floats print with the shortest representation that parses
   back to the same value, so [le="0.05"] rather than 17 digits while a
   scraper still sees the exact bucket edges the estimator used. *)
let prometheus_float f =
  let s = Printf.sprintf "%.12g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let prometheus_name n =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    n

let metrics_prometheus () =
  let b = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  List.iter
    (fun m ->
      match m with
      | Counter (n, v) ->
          let n = prometheus_name n ^ "_total" in
          out "# TYPE %s counter\n%s %d\n" n n v
      | Histogram (n, h) ->
          let n = prometheus_name n in
          out "# TYPE %s histogram\n" n;
          let cum = ref 0 in
          Array.iteri
            (fun i c ->
              if i < Array.length h.h_bounds then begin
                cum := !cum + c;
                out "%s_bucket{le=\"%s\"} %d\n" n (prometheus_float h.h_bounds.(i)) !cum
              end)
            h.h_buckets;
          out "%s_bucket{le=\"+Inf\"} %d\n" n h.h_count;
          out "%s_sum %s\n" n (prometheus_float h.h_sum);
          out "%s_count %d\n" n h.h_count)
    (metrics_snapshot ());
  Buffer.contents b

let pp_summary ppf () =
  let ms = metrics_snapshot () in
  Format.fprintf ppf "@[<v>== metrics ==@,";
  List.iter
    (fun m ->
      match m with
      | Counter (n, v) -> Format.fprintf ppf "  %-32s %d@," n v
      | Histogram (n, h) ->
          if h.h_count = 0 then Format.fprintf ppf "  %-32s (empty)@," n
          else
            Format.fprintf ppf "  %-32s count=%d mean=%.3g min=%.3g max=%.3g@," n h.h_count
              (h.h_sum /. float_of_int h.h_count)
              h.h_min h.h_max)
    ms;
  let spans = recorded_spans () in
  if spans <> [] then begin
    Format.fprintf ppf "== spans (by name) ==@,";
    Format.fprintf ppf "  %-32s %8s %12s %12s %12s@," "name" "count" "total ms" "mean ms" "max ms";
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun s ->
        let ms = Int64.to_float s.sdur_ns /. 1e6 in
        match Hashtbl.find_opt tbl s.sname with
        | None -> Hashtbl.replace tbl s.sname (ref (1, ms, ms))
        | Some r ->
            let c, tot, mx = !r in
            r := (c + 1, tot +. ms, Float.max mx ms))
      spans;
    let rows = Hashtbl.fold (fun name r acc -> (name, !r) :: acc) tbl [] in
    let rows =
      List.sort (fun (_, (_, t1, _)) (_, (_, t2, _)) -> Float.compare t2 t1) rows
    in
    List.iter
      (fun (name, (c, tot, mx)) ->
        Format.fprintf ppf "  %-32s %8d %12.3f %12.3f %12.3f@," name c tot (tot /. float_of_int c) mx)
      rows
  end;
  let dropped = dropped_spans () and hwm = span_high_water () in
  if dropped > 0 || hwm > 0 then
    Format.fprintf ppf "== span buffers ==@,  dropped %d, per-domain high-water %d of %d@," dropped
      hwm max_spans_per_domain;
  Format.fprintf ppf "@]"

(* ---------------------------------------------------- env integration *)

let trace_env_var = "BUFSIZE_TRACE"
let metrics_env_var = "BUFSIZE_METRICS"

let init_from_env () =
  (match Sys.getenv_opt trace_env_var with
  | None | Some "" -> ()
  | Some path ->
      enable_spans ();
      enable_metrics ();
      at_exit (fun () -> write_chrome_trace path));
  match Sys.getenv_opt metrics_env_var with
  | None | Some "" -> ()
  | Some ("1" | "summary") ->
      enable_metrics ();
      at_exit (fun () -> Format.eprintf "%a@." pp_summary ())
  | Some path ->
      enable_spans ();
      enable_metrics ();
      at_exit (fun () -> write_jsonl path)

(* ----------------------------------------------------------- ring *)

(* A bounded ring of recent records: one slot array and a push count
   under one mutex.  Its writers push once per request, so the lock is
   never contended for long, and [tail] is exactly the newest
   [capacity] records. *)
module Ring = struct
  type 'a t = { lock : Mutex.t; slots : 'a option array; mutable count : int }

  let create ~capacity =
    if capacity < 1 then invalid_arg "Obs.Ring.create: capacity must be >= 1";
    { lock = Mutex.create (); slots = Array.make capacity None; count = 0 }

  let push t v =
    Mutex.lock t.lock;
    t.slots.(t.count mod Array.length t.slots) <- Some v;
    t.count <- t.count + 1;
    Mutex.unlock t.lock

  let pushed t =
    Mutex.lock t.lock;
    let n = t.count in
    Mutex.unlock t.lock;
    n

  let tail t =
    Mutex.lock t.lock;
    let cap = Array.length t.slots in
    let n = Int.min t.count cap in
    let held = List.init n (fun i -> t.slots.((t.count - n + i) mod cap)) in
    Mutex.unlock t.lock;
    List.filter_map Fun.id held
end
