module Obs = Bufsize_obs.Obs
open Cmdliner

type t = { trace : string option; metrics : bool; metrics_json : string option }

let term =
  let trace =
    let doc =
      "Write a Chrome trace_event JSON of the run to $(docv) (loadable in Perfetto / \
       chrome://tracing, one track per domain). Implies metric collection."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics =
    let doc = "Collect metrics and print a summary table to stderr after the run." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let metrics_json =
    let doc = "Collect metrics and write them as a JSON object to $(docv) ($(b,-) = stdout)." in
    Arg.(value & opt (some string) None & info [ "metrics-json" ] ~docv:"FILE" ~doc)
  in
  Term.(
    const (fun trace metrics metrics_json -> { trace; metrics; metrics_json })
    $ trace $ metrics $ metrics_json)

(* A long-running subcommand killed with SIGINT/SIGTERM would otherwise
   die without running [at_exit] — losing the trace/metrics files the
   user asked for.  Converting the signal into [exit] routes it through
   the exporters ([serve] overrides these with its own drain-first
   handlers). *)
let install_exit_on_signals () =
  List.iter
    (fun signum ->
      try Sys.set_signal signum (Sys.Signal_handle (fun s -> Stdlib.exit (128 + s)))
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

(* Exporters run from [at_exit] so they fire even on the [exit 1] paths
   (e.g. verify failures), matching the BUFSIZE_TRACE env-var behaviour. *)
let setup { trace; metrics; metrics_json } =
  install_exit_on_signals ();
  if trace <> None then Obs.enable_spans ();
  if trace <> None || metrics || metrics_json <> None then begin
    Obs.enable_metrics ();
    at_exit (fun () ->
        Option.iter Obs.write_chrome_trace trace;
        (match metrics_json with
        | None -> ()
        | Some "-" -> print_endline (Obs.metrics_json ())
        | Some path ->
            let oc = open_out path in
            output_string oc (Obs.metrics_json ());
            output_char oc '\n';
            close_out oc);
        if metrics then Format.eprintf "%a@." Obs.pp_summary ())
  end
