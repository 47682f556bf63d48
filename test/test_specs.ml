(* Spec texts and helpers shared by more than one test executable. *)

(* Run [f] with BUFSIZE_NUM_DOMAINS set to [v].  The environment cannot be
   unset portably, so an originally absent variable is restored to the
   value [Replicate.domains] would have picked anyway. *)
let with_domains_env v f =
  let var = "BUFSIZE_NUM_DOMAINS" in
  let restore =
    match Sys.getenv_opt var with
    | Some old -> old
    | None -> string_of_int (Domain.recommended_domain_count ())
  in
  Unix.putenv var v;
  Fun.protect ~finally:(fun () -> Unix.putenv var restore) f

let traffic text =
  match Bufsize_soc.Spec_parser.parse text with Ok (_, t) -> t | Error e -> failwith e

(* A three-bus SoC whose buses are joined by two bridges.  Sized at budget
   64 with 40 states per subsystem, its joint LP has ~110 rows. *)
let three_bus =
  {|bus cpu rate 3.7
bus mem rate 4.5
bus io rate 3.6
proc cpu0 on cpu
proc cpu1 on cpu
proc cpu2 on cpu
proc mem0 on mem
proc mem1 on mem
proc mem2 on mem
proc io0 on io
proc io1 on io
proc io2 on io
bridge b01 cpu mem
bridge b12 mem io
flow cpu0 -> mem0 rate 0.6
flow cpu1 -> io1 rate 0.57
flow cpu2 -> cpu0 rate 0.58
flow mem1 -> cpu1 rate 0.63
flow mem2 -> io0 rate 0.61
flow io0 -> mem1 rate 0.62
flow io2 -> cpu2 rate 0.56
flow io1 -> io2 rate 0.56
|}

