module Obs = Bufsize_obs.Obs

let global_enabled = Atomic.make true
let enabled () = Atomic.get global_enabled
let set_enabled b = Atomic.set global_enabled b

type 'a entry = { value : 'a; mutable stamp : int }

type 'a t = {
  capacity : int;
  mutex : Mutex.t;
  table : (string, 'a entry) Hashtbl.t;
  mutable tick : int;
  hit_count : int Atomic.t;
  miss_count : int Atomic.t;
  m_hits : Obs.counter;
  m_misses : Obs.counter;
}

(* Registry of every cache, so benchmarks and oracles can wipe global
   state between a cold and a warm measurement. *)
type any = Any : 'a t -> any

let registry_mutex = Mutex.create ()
let registry : any list ref = ref []

let create ?(capacity = 64) name =
  let c =
    {
      capacity = max 1 capacity;
      mutex = Mutex.create ();
      table = Hashtbl.create 64;
      tick = 0;
      hit_count = Atomic.make 0;
      miss_count = Atomic.make 0;
      m_hits = Obs.counter (Printf.sprintf "cache.%s.hits" name);
      m_misses = Obs.counter (Printf.sprintf "cache.%s.misses" name);
    }
  in
  Mutex.lock registry_mutex;
  registry := Any c :: !registry;
  Mutex.unlock registry_mutex;
  c

let locked c f =
  Mutex.lock c.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.mutex) f

let find c key =
  if not (enabled ()) then None
  else
    locked c @@ fun () ->
    match Hashtbl.find_opt c.table key with
    | Some e ->
        c.tick <- c.tick + 1;
        e.stamp <- c.tick;
        Atomic.incr c.hit_count;
        Obs.incr c.m_hits;
        Some e.value
    | None ->
        Atomic.incr c.miss_count;
        Obs.incr c.m_misses;
        None

let evict_lru c =
  let oldest =
    Hashtbl.fold
      (fun key e acc ->
        match acc with Some (_, stamp) when stamp <= e.stamp -> acc | _ -> Some (key, e.stamp))
      c.table None
  in
  Option.iter (fun (key, _) -> Hashtbl.remove c.table key) oldest

let add c key value =
  if enabled () then begin
    locked c @@ fun () ->
    c.tick <- c.tick + 1;
    match Hashtbl.find_opt c.table key with
    | Some e -> e.stamp <- c.tick
    | None ->
        if Hashtbl.length c.table >= c.capacity then evict_lru c;
        Hashtbl.replace c.table key { value; stamp = c.tick }
  end

let clear c = locked c @@ fun () -> Hashtbl.reset c.table

let hits c = Atomic.get c.hit_count
let misses c = Atomic.get c.miss_count
let length c = locked c @@ fun () -> Hashtbl.length c.table

let clear_all () =
  let caches =
    Mutex.lock registry_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) (fun () -> !registry)
  in
  List.iter (fun (Any c) -> clear c) caches
