(* Clocks, process gauges and order statistics. *)

let now = Pacor_route.Clock.now_mono

(* CPU seconds of this process, every domain included. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb ?(pid = "self") () =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  match
    List.find_map
      (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] -> Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> kb)
         | _ -> None)
      (String.split_on_char '\n' status)
  with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith ("no VmHWM in /proc/" ^ pid ^ "/status")

(* User + system CPU seconds of another process, from /proc/<pid>/stat
   (clock ticks of 1/100 s). *)
let proc_cpu pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* Fields after the parenthesised command name; utime, stime are the
     12th and 13th of them. *)
  let rest = String.sub stat (String.rindex stat ')' + 2)
      (String.length stat - String.rindex stat ')' - 2) in
  match String.split_on_char ' ' rest with
  | fields when List.length fields > 12 ->
    float_of_string (List.nth fields 11) +. float_of_string (List.nth fields 12)
    |> fun ticks -> ticks /. 100.0
  | _ -> failwith "malformed /proc stat line"

(* Quantile [q] of a sample by linear interpolation between order
   statistics. *)
let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i >= Array.length a - 1 then a.(Array.length a - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let sum xs = List.fold_left ( +. ) 0.0 xs
