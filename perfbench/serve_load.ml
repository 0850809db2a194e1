(* The mixed serve workload: a `pdfatpg serve --unix` child at one job,
   driven by this process over two connections.

   - heavy: closed loop, one `enrich` request at a time, alternating a
     fresh seed (an enrichment-cache miss) with a repeat of an earlier
     seed (an answer-cache hit).
   - light: open loop at a fixed rate, `ping`/`info`/`explain`/`why`
     over seeds whose provenances are warmed during set-up; each is
     timed from when it was due to be sent.

   A first phase runs the light client alone (its unloaded latency), the
   mixed phase runs both until the heavy script is done.  Every distinct
   query's served bytes are then compared with the answer of an
   in-process Session, outside the timed phases. *)

module J = Pdf_obs.Json_text
module Session = Pdf_serve.Session
module Rng = Pdf_util.Rng

type cfg = {
  circuit : string;
  light_rate : float;  (** light requests per second *)
  unloaded_s : float;  (** length of the light-only phase *)
  heavy : int;  (** heavy requests in the mixed phase *)
  fault_ids : int;  (** explain/why query fault ids in [\[0, fault_ids)] *)
}

type query =
  | Ping
  | Info
  | Explain of int * int  (** seed, fault id *)
  | Why of int * int
  | Enrich of int  (** seed *)

let request_line cfg ~id q =
  let c = J.quote cfg.circuit in
  match q with
  | Ping -> Printf.sprintf {|{"id":%d,"req":"ping"}|} id
  | Info -> Printf.sprintf {|{"id":%d,"req":"info","circuit":%s}|} id c
  | Explain (seed, f) | Why (seed, f) ->
    Printf.sprintf
      {|{"id":%d,"req":"%s","circuit":%s,"seed":%d,"justify":"sim","query":"%d"}|}
      id (match q with Why _ -> "why" | _ -> "explain") c seed f
  | Enrich seed ->
    Printf.sprintf
      {|{"id":%d,"req":"enrich","circuit":%s,"seed":%d,"justify":"sim"}|} id c
      seed

(* The answer an in-process session gives: the bytes a served response
   must carry. *)
let reference session cfg q =
  let params seed = { Session.default_params with Session.seed } in
  let circuit = cfg.circuit in
  let text = function
    | Ok (a : Session.answer) -> a.Session.text
    | Error e -> "error: " ^ Session.error_message e
  in
  match q with
  | Ping -> ""
  | Info -> text (Session.info session ~circuit)
  | Explain (seed, f) ->
    text (Session.explain session ~circuit ~params:(params seed) ~query:(string_of_int f))
  | Why (seed, f) ->
    text (Session.why session ~circuit ~params:(params seed) ~query:(string_of_int f))
  | Enrich seed ->
    text (Session.enrich session ~circuit ~params:(params seed) ~coverage:false)

(* ------------------------------------------------------------------ *)
(* Connections and frames                                              *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  out : Buffer.t;  (** request bytes the socket has not taken yet *)
  partial : Buffer.t;  (** answer bytes after the last complete line *)
  bodies : (int, Buffer.t) Hashtbl.t;  (** chunk payloads per request id *)
}

type event = Done of int * string | Failed of int * string

let rec connect path ~deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
    Unix.set_nonblock fd;
    { fd; out = Buffer.create 4096; partial = Buffer.create 256;
      bodies = Hashtbl.create 64 }
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when Spec.now () < deadline ->
    Unix.close fd;
    Unix.sleepf 0.002;
    connect path ~deadline

(* Hand the socket as much pending output as it takes now.  Never
   blocking matters: the server writes answers with blocking writes, so
   a client blocked on a full request buffer while answers pile up
   unread would deadlock with it. *)
let flush conn =
  let data = Buffer.contents conn.out in
  let len = String.length data in
  let rec go off =
    if off >= len then off
    else
      match Unix.write_substring conn.fd data off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> off
  in
  let off = go 0 in
  Buffer.clear conn.out;
  Buffer.add_string conn.out (String.sub data off (len - off))

let send conn line =
  Buffer.add_string conn.out line;
  Buffer.add_char conn.out '\n';
  flush conn

let frame conn line =
  let field name conv v = Option.bind (J.member name v) conv in
  match J.parse line with
  | Error msg -> Some (Failed (0, "unparseable frame: " ^ msg))
  | Ok v -> (
    let id = Option.fold ~none:0 ~some:int_of_float (field "id" J.to_num v) in
    let body () =
      match Hashtbl.find_opt conn.bodies id with
      | Some b -> b
      | None ->
        let b = Buffer.create 256 in
        Hashtbl.replace conn.bodies id b;
        b
    in
    match field "ev" J.to_str v with
    | Some "chunk" ->
      Buffer.add_string (body ()) (Option.value ~default:"" (field "data" J.to_str v));
      None
    | Some "done" ->
      let text = Buffer.contents (body ()) in
      Hashtbl.remove conn.bodies id;
      Some (Done (id, text))
    | _ -> Some (Failed (id, line)))

(* The events completed by whatever the socket has ready. *)
let read_events conn =
  let buf = Bytes.create 65536 in
  match Unix.read conn.fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> []
  | 0 -> failwith "perfbench: the server closed the connection"
  | n -> (
    Buffer.add_subbytes conn.partial buf 0 n;
    let data = Buffer.contents conn.partial in
    match String.rindex_opt data '\n' with
    | None -> []
    | Some last ->
      Buffer.clear conn.partial;
      Buffer.add_string conn.partial
        (String.sub data (last + 1) (String.length data - last - 1));
      String.split_on_char '\n' (String.sub data 0 last)
      |> List.filter_map (frame conn))

(* Wait up to [timeout] seconds for answers or for room to send; the
   events read, per connection. *)
let pump conns ~timeout =
  let pending = List.filter (fun c -> Buffer.length c.out > 0) conns in
  let readable, writable, _ =
    Unix.select (List.map (fun c -> c.fd) conns) (List.map (fun c -> c.fd) pending) []
      (Float.max 0. timeout)
  in
  List.iter (fun c -> if List.mem c.fd writable then flush c) pending;
  List.map (fun c -> (c, if List.mem c.fd readable then read_events c else [])) conns

(* A request outside the timed phases: wait for its answer. *)
let round_trip conn ~id line =
  let deadline = Spec.now () +. 60. in
  send conn line;
  let rec wait () =
    if Spec.now () > deadline then failwith "perfbench: no answer within 60 s";
    let events = List.concat_map snd (pump [ conn ] ~timeout:0.1) in
    match List.find_opt (function Done (i, _) | Failed (i, _) -> i = id) events with
    | Some (Done (_, text)) -> text
    | Some (Failed (_, msg)) -> failwith ("perfbench: request failed: " ^ msg)
    | None -> wait ()
  in
  wait ()

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)
(* ------------------------------------------------------------------ *)

type phase = {
  light_lat : float array;  (** seconds from due time to answer *)
  lags : float array;  (** seconds each light request was sent late *)
  heavy_lat : (query * float) list;  (** in completion order *)
  wall : float;  (** phase start to last heavy answer (or its duration) *)
  attempted : int;
  failed : int;
}

(* Run one phase.  Light request [i] carries id [id_base + i] and query
   [light i]; the phase ends after [duration] seconds when [heavy] is
   empty, else when the heavy script is done.  Then every light request
   already sent is drained.  [served] collects the bytes of each
   answered query for the reference check. *)
let max_phase_s = 100.

let run_phase ~light_conn ~heavy_conn ~cfg ~id_base ~light ~heavy ~duration
    ~served =
  let start = Spec.now () in
  let ol = Openloop.create ~start ~rate:cfg.light_rate in
  let failed = ref 0 and heavy_lat = ref [] in
  let heavy = Array.of_list heavy in
  let next_heavy = ref 0 and in_flight = ref None in
  let heavy_done () = List.length !heavy_lat = Array.length heavy in
  (* a stuck server must not hold the run past its time limit *)
  let finished now =
    now -. start >= max_phase_s
    || if Array.length heavy = 0 then now -. start >= duration else heavy_done ()
  in
  let record q text =
    match Hashtbl.find_opt served q with
    | Some t when t <> text ->
      Printf.eprintf "perfbench: CHECK FAILED: two different answers to one query\n%!";
      incr failed
    | Some _ -> ()
    | None -> Hashtbl.replace served q text
  in
  (* An answer whose id is not a request of this phase (a late answer
     to an earlier phase, or a frame without a readable id) is only
     logged: the request it belongs to is already counted as failed
     while it stays outstanding. *)
  let ours i = i >= 0 && i < Openloop.sent ol in
  let handle_light now = function
    | Done (id, text) when ours (id - id_base) ->
      Openloop.complete ol (id - id_base) ~now;
      record (light (id - id_base)) text
    | Failed (id, msg) when ours (id - id_base) ->
      Printf.eprintf "perfbench: light request %d failed: %s\n%!" id msg;
      Openloop.complete ol (id - id_base) ~now;
      incr failed
    | Done (id, _) | Failed (id, _) ->
      Printf.eprintf "perfbench: ignored an answer with id %d outside this phase\n%!" id
  in
  let heavy_id () = Option.map (fun (_, id, _) -> id) !in_flight in
  let handle_heavy now = function
    | Done (id, text) when Some id = heavy_id () ->
      Option.iter
        (fun (q, _, sent) ->
          heavy_lat := (q, now -. sent) :: !heavy_lat;
          record q text)
        !in_flight;
      in_flight := None
    | Failed (id, msg) when Some id = heavy_id () ->
      Printf.eprintf "perfbench: heavy request failed: %s\n%!" msg;
      Option.iter (fun (q, _, _) -> heavy_lat := (q, nan) :: !heavy_lat) !in_flight;
      in_flight := None;
      incr failed
    | Done (id, _) | Failed (id, _) ->
      Printf.eprintf "perfbench: ignored a heavy answer with id %d\n%!" id
  in
  let poll ~timeout =
    let conns = light_conn :: (if Array.length heavy > 0 then [ heavy_conn ] else []) in
    List.iter
      (fun (c, events) ->
        let now = Spec.now () in
        List.iter (if c == light_conn then handle_light now else handle_heavy now) events)
      (pump conns ~timeout)
  in
  let wall = ref 0. in
  let rec loop () =
    let now = Spec.now () in
    if finished now then wall := now -. start
    else begin
      List.iter
        (fun i -> send light_conn (request_line cfg ~id:(id_base + i) (light i)))
        (Openloop.take_due ol ~now);
      if !in_flight = None && !next_heavy < Array.length heavy then begin
        let q = heavy.(!next_heavy) in
        incr next_heavy;
        in_flight := Some (q, !next_heavy, Spec.now ());
        send heavy_conn (request_line cfg ~id:!next_heavy q)
      end;
      poll ~timeout:(Float.min 0.05 (Openloop.next_due ol -. Spec.now ()));
      loop ()
    end
  in
  loop ();
  let deadline = Spec.now () +. 30. in
  while Openloop.outstanding ol > 0 && Spec.now () < deadline do
    poll ~timeout:0.05
  done;
  failed :=
    !failed + Openloop.outstanding ol + (Array.length heavy - List.length !heavy_lat);
  {
    light_lat = Openloop.latencies ol;
    lags = Openloop.lags ol;
    heavy_lat = List.rev !heavy_lat;
    wall = !wall;
    attempted = Openloop.sent ol + Array.length heavy;
    failed = !failed;
  }

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

(* The seeded input streams: the warmed seeds, the light query mix and
   the heavy script.  The light mix is a synthetic stress mix, not
   recorded traffic: 10% ping, 10% info, 40% explain and 40% why, over
   [fault_ids] fault ids and the [warm] seeds.  The heavy script
   alternates a fresh seed (an enrichment miss) with a repeat of an
   earlier one (an answer-cache hit). *)
(* Seeds warmed in set-up for the light queries: more than one, so the
   light queries read more than one provenance; few, because each costs
   an enrichment in set-up and another in the reference check. *)
let warm_seeds = 2

let streams cfg ~seed =
  let rng = Rng.create seed in
  let distinct_seed taken ~base =
    let rec pick () =
      let s = base + Rng.int rng 1_000_000 in
      if List.mem s taken then pick () else s
    in
    pick ()
  in
  let warm =
    List.fold_left
      (fun acc _ -> distinct_seed acc ~base:1_000 :: acc)
      [] (List.init warm_seeds Fun.id)
    |> Array.of_list
  in
  let light_rng = Rng.split rng in
  let drawn = Hashtbl.create 4096 in
  (* drawn in index order, so query [i] depends only on the seed *)
  let rec light i =
    match Hashtbl.find_opt drawn i with
    | Some q -> q
    | None ->
      if i > 0 then ignore (light (i - 1) : query);
      let q =
        match Rng.int light_rng 10 with
        | 0 -> Ping
        | 1 -> Info
        | k ->
          let w = warm.(Rng.int light_rng (Array.length warm)) in
          let f = Rng.int light_rng cfg.fault_ids in
          if k < 6 then Explain (w, f) else Why (w, f)
      in
      Hashtbl.replace drawn i q;
      q
  in
  let fresh = ref [] in
  let heavy =
    List.init cfg.heavy (fun i ->
        if i mod 2 = 1 then
          Enrich (List.nth !fresh (Rng.int rng (List.length !fresh)))
        else begin
          let s = distinct_seed (Array.to_list warm @ !fresh) ~base:10_000_000 in
          fresh := s :: !fresh;
          Enrich s
        end)
  in
  (Array.to_list warm, light, heavy)

(* Prometheus sample lookup in a [metrics] answer. *)
let prom_value text name =
  String.split_on_char '\n' text
  |> List.find_map (fun l ->
         match String.split_on_char ' ' l with
         | [ n; v ] when n = name -> float_of_string_opt v
         | _ -> None)
  |> Option.value ~default:0.

(* A registry counter or gauge of the server, by its in-program name. *)
let server_counter text name =
  let p = Pdf_obs.Prom.sanitize name in
  Float.max (prom_value text (p ^ "_total")) (prom_value text p)

let hit_ratio text what =
  let hits = server_counter text (Printf.sprintf "serve.session.%s_hits" what)
  and misses = server_counter text (Printf.sprintf "serve.session.%ss" what) in
  Layers.ratio hits (hits +. misses)

let enrich_summary text =
  Scanf.sscanf_opt text "enrichment: %d/%d P0 and %d/%d P0 u P1 faults detected, %d tests"
    (fun p0 _ p _ tests -> (float p0, float p, float tests))

let child_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"PDF_" kv))
  |> Array.of_list

let run cfg ~pdfatpg ~run_dir ~seed ~trace =
  let warm, light, heavy = streams cfg ~seed in
  let path = Filename.concat run_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let t0 = Spec.now () in
  let pid =
    Unix.create_process_env pdfatpg
      [| pdfatpg; "serve"; "--unix"; path; "--jobs"; "1"; "--justify"; "sim" |]
      (child_env ()) Unix.stdin Unix.stderr Unix.stderr
  in
  let exited = ref false in
  let stop () =
    if not !exited then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid : int * Unix.process_status);
      exited := true
    end
  in
  Fun.protect ~finally:stop @@ fun () ->
  let deadline = t0 +. 60. in
  let light_conn = connect path ~deadline in
  let heavy_conn = connect path ~deadline in
  ignore (round_trip light_conn ~id:1 (request_line cfg ~id:1 Ping) : string);
  ignore (round_trip light_conn ~id:2 (request_line cfg ~id:2 Info) : string);
  List.iteri
    (fun k w ->
      let id = 100 + k in
      ignore (round_trip light_conn ~id (request_line cfg ~id (Explain (w, 0))) : string))
    warm;
  let setup_s = Spec.now () -. t0 in
  let served = Hashtbl.create 1024 in
  let unloaded =
    run_phase ~light_conn ~heavy_conn ~cfg ~id_base:1_000 ~light ~heavy:[]
      ~duration:cfg.unloaded_s ~served
  in
  let cpu0 = Spec.proc_cpu_s pid in
  let mixed =
    run_phase ~light_conn ~heavy_conn ~cfg ~id_base:1_000_000
      ~light:(fun i -> light (unloaded.attempted + i)) ~heavy ~duration:0.
      ~served
  in
  let mixed_cpu = Spec.proc_cpu_s pid -. cpu0 in
  let metrics = round_trip light_conn ~id:4 {|{"id":4,"req":"metrics"}|} in
  let peak_rss_mb = Spec.peak_rss_mb (string_of_int pid) in
  ignore (round_trip light_conn ~id:5 {|{"id":5,"req":"shutdown"}|} : string);
  ignore (Unix.waitpid [] pid : int * Unix.process_status);
  exited := true;
  Unix.close light_conn.fd;
  Unix.close heavy_conn.fd;
  (* the reference check, outside every timed phase *)
  let session = Session.create () in
  let mismatches =
    Hashtbl.fold
      (fun q text n ->
        if reference session cfg q = text then n
        else begin
          Printf.eprintf
            "perfbench: CHECK FAILED: served bytes differ from the session \
             answer to %s\n%!"
            (request_line cfg ~id:0 q);
          n + 1
        end)
      served 0
  in
  let ms a = Array.map (fun x -> 1000. *. x) a in
  let light_ms = ms mixed.light_lat in
  let tail a = match Pct.tail a with Some t -> t.Pct.value | None -> 0. in
  (* a heavy request misses when it is the first for its seed *)
  let misses, hits =
    let seen = Hashtbl.create 16 in
    List.partition
      (fun (q, _) ->
        let first = not (Hashtbl.mem seen q) in
        Hashtbl.replace seen q ();
        first)
      mixed.heavy_lat
  in
  let lat l = Array.of_list (List.map snd l) in
  let summaries =
    List.filter_map
      (fun (q, _) -> Option.bind (Hashtbl.find_opt served q) enrich_summary)
      misses
  in
  let med f = Pct.median (Array.of_list (List.map f summaries)) in
  let heavy_n = List.length mixed.heavy_lat in
  let light_p50 = Pct.median light_ms
  and unloaded_p50 = Pct.median (ms unloaded.light_lat) in
  Printf.eprintf
    "serve: setup %.3fs, mixed phase %.3fs wall, %.3fs server CPU; light unloaded %s ms; light mixed %s ms; \
     generator lag %s ms; heavy %d (%d miss, %d hit) %s s\n%!"
    setup_s mixed.wall mixed_cpu (Pct.describe ~scale:1000. unloaded.light_lat)
    (Pct.describe light_ms) (Pct.describe ~scale:1000. mixed.lags) heavy_n
    (List.length misses) (List.length hits) (Pct.describe (lat mixed.heavy_lat));
  let e2e =
    [
      ("setup_s", setup_s);
      ("run_s", mixed_cpu);
      ("peak_rss_mb", peak_rss_mb);
      ("p0_detected", med (fun (p0, _, _) -> p0));
      ("p1_detected", med (fun (_, p, _) -> p));
      ("tests", med (fun (_, _, t) -> t));
    ]
  in
  let layers =
    if not trace then []
    else
      Layers.compute ~rows:[] ~alloc:(fun _ -> 0.) ~counter:(server_counter metrics)
        ~extras:
          [
            ("serve.light_p50_ms", light_p50);
            ("serve.light_p99_ms", tail light_ms);
            ("serve.light_samples", float (Array.length light_ms));
            ("serve.light_unloaded_ms", unloaded_p50);
            ("serve.light_wait_ms", light_p50 -. unloaded_p50);
            ("serve.heavy_p50_s", Pct.median (lat mixed.heavy_lat));
            ("serve.heavy_per_s", float heavy_n /. mixed.wall);
            ("serve.enrich_miss_s", Pct.median (lat misses));
            ("serve.enrich_hit_ms", 1000. *. Pct.median (lat hits));
            ("serve.session.enrichment_hit_ratio", hit_ratio metrics "enrichment");
            ("serve.session.answer_hit_ratio", hit_ratio metrics "answer");
            ("serve.gen_lag_ms", tail (ms mixed.lags));
            ("serve.errors", server_counter metrics "serve.errors");
          ]
  in
  {
    Spec.e2e = (if trace then [] else e2e);
    layers;
    attempted = unloaded.attempted + mixed.attempted;
    failed = unloaded.failed + mixed.failed + mismatches;
  }
