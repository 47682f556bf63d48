(* bufsize-verify — the differential oracle harness.

   Cross-checks independent solution routes on seeded random instances,
   shrinks every failure and can write and replay minimized repros.  It
   is its own executable so that the production [bufsize] binary links
   none of the oracles, generators or reference solvers. *)

module V = Bufsize_verify
open Cmdliner

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let count_arg =
  let doc = "Random instances per oracle." in
  Arg.(value & opt int 25 & info [ "n"; "count" ] ~docv:"N" ~doc)

let oracle_arg =
  let doc =
    "Run only this oracle (repeatable). Available: simplex-cross, mdp-gain, sim-analytic, \
     sizing-bounds, split-monolithic, warm-cold, kron, topo, chaos, serve, price. Default: all."
  in
  Arg.(value & opt_all string [] & info [ "o"; "oracle" ] ~docv:"NAME" ~doc)

let out_dir_arg =
  let doc = "Write minimized failing repros into this directory." in
  Arg.(value & opt (some string) None & info [ "out-dir" ] ~docv:"DIR" ~doc)

let list_arg =
  let doc = "List the oracles and exit." in
  Arg.(value & flag & info [ "list-oracles" ] ~doc)

let max_states_arg =
  let doc = "Cap on generated model sizes (states per CTMDP, sizing levels)." in
  Arg.(value & opt int 48 & info [ "max-states" ] ~docv:"N" ~doc)

let replay_arg =
  let doc =
    "Re-run a single $(docv) previously written by --out-dir and exit (nonzero if it still \
     fails)."
  in
  Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE.repro" ~doc)

let run seed count oracle_names out_dir max_states list replay telemetry =
  Cli_telemetry.setup telemetry;
  if list then
    List.iter
      (fun (o : V.Oracle.t) -> Format.printf "%-16s %s@." o.V.Oracle.name o.V.Oracle.doc)
      V.Oracles.all
  else
    match replay with
    | Some path -> (
        match V.Driver.replay path with
        | Error e ->
            Format.eprintf "error: %s@." e;
            exit 2
        | Ok (label, V.Oracle.Pass) -> Format.printf "PASS %s@." label
        | Ok (label, V.Oracle.Fail msg) ->
            Format.printf "FAIL %s@.%s@." label msg;
            exit 1)
    | None ->
        let oracles =
          match oracle_names with
          | [] -> V.Oracles.all
          | names ->
              List.map
                (fun n ->
                  match V.Oracles.find n with
                  | Some o -> o
                  | None ->
                      Format.eprintf "error: unknown oracle %S (available: %s)@." n
                        (String.concat ", " (V.Oracles.names ()));
                      exit 1)
                names
        in
        let summary =
          V.Driver.run ~oracles ?out_dir ~max_states
            ~progress:(fun line -> Format.printf "%s@." line)
            ~seed ~count ()
        in
        Format.printf "%a@." V.Driver.pp_summary summary;
        if not (V.Driver.passed summary) then exit 1

let () =
  Bufsize_obs.Obs.init_from_env ();
  let doc =
    "Cross-check the solvers against each other on random instances (differential oracles)."
  in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "bufsize-verify" ~version:"1.0.0" ~doc)
          Term.(
            const run $ seed_arg $ count_arg $ oracle_arg $ out_dir_arg $ max_states_arg
            $ list_arg $ replay_arg $ Cli_telemetry.term)))
