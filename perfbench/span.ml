(* Spans recorded by the benchmark around its calls into the program's
   layers. Kept in memory and written once, at the end, as Chrome
   trace-event JSON (loadable in chrome://tracing or Perfetto). *)

module J = Pacor_serve.Json

type span = {
  id : int;
  parent : int option;
  name : string;
  start : float;  (** seconds since the recorder was created *)
  dur : float;
  args : (string * float) list;
}

type t = {
  t0 : float;
  mutable spans : span list;  (** most recent first *)
  mutable stack : int list;   (** ids of the open spans, innermost first *)
  mutable next_id : int;
}

let create () = { t0 = Meter.now (); spans = []; stack = []; next_id = 0 }

(* Time [f ()] as a span named [name], nested under whichever span is open.
   [args] computes counters from the result, attached to the span. *)
let record t ?(args = fun _ -> []) name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> Some p | [] -> None in
  t.stack <- id :: t.stack;
  let start = Meter.now () in
  let finish args =
    let stop = Meter.now () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; parent; name; start = start -. t.t0; dur = stop -. start; args } :: t.spans
  in
  match f () with
  | r -> finish (args r); r
  | exception e -> finish []; raise e

let spans t = List.rev t.spans

let durations t name =
  List.filter_map (fun s -> if s.name = name then Some s.dur else None) (spans t)

(* The span closed last, and the total duration of the spans called
   [name] directly under span [parent]. *)
let last t = List.hd t.spans

let child_total t ~parent name =
  List.fold_left
    (fun acc s -> if s.parent = Some parent && s.name = name then acc +. s.dur else acc)
    0.0 t.spans

(* Self time of every span: its duration minus the part its direct
   children cover, by span id. *)
let self_times t =
  let self = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace self s.id s.dur) t.spans;
  List.iter
    (fun s ->
       Option.iter (fun p -> Hashtbl.replace self p (Hashtbl.find self p -. s.dur)) s.parent)
    t.spans;
  self

(* What one span costs the recorder, measured on a throw-away recorder. *)
let cost_per_span () =
  let t = create () in
  let n = 10_000 in
  let t0 = Meter.now () in
  for _ = 1 to n do
    record t "probe" ignore
  done;
  (Meter.now () -. t0) /. float_of_int n

let to_json t =
  let self = self_times t in
  let us s = J.Float (s *. 1e6) in
  let event s =
    J.Obj
      [ ("name", J.String s.name);
        ("cat", J.String (match String.index_opt s.name '.' with
           | Some i -> String.sub s.name 0 i
           | None -> s.name));
        ("ph", J.String "X");
        ("ts", us s.start);
        ("dur", us s.dur);
        ("pid", J.Int 1);
        ("tid", J.Int 1);
        ("args",
         J.Obj
           (("id", J.Int s.id)
            :: ("parent", match s.parent with Some p -> J.Int p | None -> J.Null)
            :: ("self_us", us (Hashtbl.find self s.id))
            :: List.map (fun (k, v) -> (k, J.Float v)) s.args)) ]
  in
  J.Obj [ ("traceEvents", J.List (List.map event (spans t))); ("displayTimeUnit", J.String "ms") ]

(* Write the trace and read it back through the same JSON module. *)
let write t ~path =
  let text = J.to_string (to_json t) in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  match J.of_string (Meter.read_file path) with
  | Ok _ -> Ok (List.length t.spans)
  | Error e -> Error ("trace file " ^ path ^ " does not parse: " ^ e)
