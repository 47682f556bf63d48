(** Oracle #10: the daemon answers exactly like the library.

    Each case starts a real in-process {!Bufsize_serve.Serve} server on a
    fresh socket and throws a mixed batch at it — well-formed sizing
    requests (pipelined on one connection and concurrently from separate
    domains), malformed JSON, an unknown op, an oversized line, a
    deadline-zero request, and telemetry, stats and flight probes.  The
    contract checked:

    - every request line gets exactly one well-formed reply, ids echoed;
    - sizing replies are {e bitwise identical} to a direct
      {!Bufsize_soc.Sizing.run} through the shared serializer;
    - malformed / unknown / oversized / deadline-zero requests come back
      as their typed statuses, never as silence or a dead socket;
    - the server survives all of it and still answers afterwards. *)

val case : text:string -> budget:int -> max_states:int -> seed:int -> Oracle.case
(** The case is fully determined by the architecture text and the three
    numeric headers, so replay needs only the repro file. *)

val oracle : Oracle.t
(** The [serve] entry of the oracle matrix. *)
