(* Host pace: the speed of the shared host, measured by a fixed reference
   kernel that belongs to the benchmark and runs none of the program.

   The benchmark runs on a few cores of a shared host. The host's speed for
   memory-bound work drifts by up to 2x over minutes, and shifts within
   seconds, with the load other tenants put on its caches and memory;
   arithmetic speed moves a few percent. A deterministic [Engine.run] of
   Chip1 measured 1.6 s and 3.6 s of CPU time on the same host, with no
   system time and no page faults. Raw times of two runs of the same code
   therefore differ by more than any useful bound.

   The kernel does the kinds of work routing does: a Dijkstra search on a
   512x512 grid over a binary heap in arrays, a dependent random walk
   through a 32 MB permutation, short-lived allocation (binary trees built
   and summed), and hash-table inserts and lookups. It runs in a process of
   its own, forked before the program runs and with fixed GC settings, so
   the program's heap, resident set and GC settings cannot change its time.
   A run times the kernel before its first sample, between samples (at
   most once every [interval] seconds) and after the last one. A sample
   taken between two measures is multiplied by ([reference_s] / k) **
   [exponent], where k is their mean: it is reported at the reference
   pace. The factor does not depend on the program, so a change that makes
   the program slower moves its scaled times by the same share at any host
   pace.

   The exponent is measured. While the host drifted within one regime
   (kernel medians 0.094-0.124 s over 25 minutes), the program's raw times
   moved as the kernel's power 1.0-1.1. Between a slow regime (kernel
   median 0.17 s) and a fast one (0.10 s) an hour later, they moved as its
   power 1.2-1.5 (Chip1 1.5, Scaled3 1.35, the LM batch 1.2, the daemon's
   latency 1.25), and the daemon's start-up as its power 0.7 (with a
   journal left by the run before). With 1.2 no scaled median moved by
   more than 16% between the two regimes, except the daemon's start-up
   (29%); with 1, Chip1's moved by 25-26%. *)

(* A typical kernel time on the 2-core host where the benchmark was built,
   an Intel Xeon (model 207) with 300 MB of shared L3; there the run's
   kernel median ranged from 0.09 to 0.22 s. *)
let reference_s = 0.18

let exponent = 1.2

let interval = 1.0

let side = 512
let cells = side * side
let walk_steps = 250_000

type kernel = {
  weight : int array;
  dist : int array;
  heap_key : int array;
  heap_cell : int array;
  next : int array;  (** one cycle through all of its indices (Sattolo) *)
}

let lcg s = ((s * 1103515245) + 12345) land 0x3fffffff

let make_kernel () =
  let s = ref 12345 in
  let weight = Array.init cells (fun _ -> s := lcg !s; 1 + ((!s lsr 8) mod 9)) in
  let n = 1 lsl 22 in
  let next = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    s := lcg !s;
    let j = !s mod i in
    let t = next.(i) in
    next.(i) <- next.(j);
    next.(j) <- t
  done;
  { weight; dist = Array.make cells max_int; heap_key = Array.make (4 * cells) 0;
    heap_cell = Array.make (4 * cells) 0; next }

(* Shortest distances from cell 0 with lazy deletion; returns their sum. *)
let dijkstra k =
  let dist = k.dist and key = k.heap_key and cell = k.heap_cell in
  Array.fill dist 0 cells max_int;
  let size = ref 0 in
  let push d c =
    let i = ref !size in
    incr size;
    while !i > 0 && key.((!i - 1) / 2) > d do
      let p = (!i - 1) / 2 in
      key.(!i) <- key.(p);
      cell.(!i) <- cell.(p);
      i := p
    done;
    key.(!i) <- d;
    cell.(!i) <- c
  in
  let total = ref 0 in
  dist.(0) <- 0;
  push 0 0;
  while !size > 0 do
    let d = key.(0) and u = cell.(0) in
    decr size;
    let lk = key.(!size) and lc = cell.(!size) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !size then sifting := false
      else begin
        let c = if l + 1 < !size && key.(l + 1) < key.(l) then l + 1 else l in
        if key.(c) < lk then (key.(!i) <- key.(c); cell.(!i) <- cell.(c); i := c)
        else sifting := false
      end
    done;
    key.(!i) <- lk;
    cell.(!i) <- lc;
    if d = dist.(u) then begin
      total := !total + d;
      let x = u mod side in
      let relax v =
        let nd = d + k.weight.(v) in
        if nd < dist.(v) then (dist.(v) <- nd; push nd v)
      in
      if x > 0 then relax (u - 1);
      if x < side - 1 then relax (u + 1);
      if u >= side then relax (u - side);
      if u < cells - side then relax (u + side)
    end
  done;
  !total

let walk k =
  let p = ref 0 in
  for _ = 1 to walk_steps do p := k.next.(!p) done;
  !p

type tree = Leaf | Node of tree * int * tree

let rec build d = if d = 0 then Leaf else Node (build (d - 1), d, build (d - 1))
let rec total = function Leaf -> 0 | Node (l, v, r) -> total l + v + total r

let alloc () =
  let s = ref 0 in
  for _ = 1 to 400 do s := !s + total (build 13) done;
  !s

let hash () =
  let h = Hashtbl.create 16 in
  for i = 1 to 80_000 do Hashtbl.replace h ((i * 7919) land 0xfffff) (i, i) done;
  let s = ref 0 in
  for i = 1 to 80_000 do
    match Hashtbl.find_opt h ((i * 104729) land 0xfffff) with Some (a, _) -> s := !s + a | None -> ()
  done;
  !s

let run_kernel k = dijkstra k + walk k + alloc () + hash ()

(* The kernel runs in a child process. It waits for a byte on its command
   pipe, runs the kernel once, and answers with the kernel's time; end of
   file stops it. *)
let serve_kernel cmd answer =
  Gc.set { (Gc.get ()) with minor_heap_size = 262_144; space_overhead = 120 };
  let k = make_kernel () in
  let byte = Bytes.create 1 in
  while Unix.read cmd byte 0 1 = 1 do
    let t0 = Meter.now () in
    ignore (Sys.opaque_identity (run_kernel k));
    let line = Printf.sprintf "%.9f\n" (Meter.now () -. t0) in
    ignore (Unix.write_substring answer line 0 (String.length line))
  done

type t = {
  pid : int;
  cmd : Unix.file_descr;
  answer : in_channel;
  mutable times : float list;  (** kernel times of this run, newest first *)
  mutable count : int;  (** length of [times] *)
  mutable last : float;  (** when the kernel last ended *)
  mutable spent : float;  (** seconds spent waiting for the kernel *)
}

let measure t =
  let t0 = Meter.now () in
  ignore (Unix.write_substring t.cmd "k" 0 1);
  let time = float_of_string (input_line t.answer) in
  let t1 = Meter.now () in
  t.times <- time :: t.times;
  t.count <- t.count + 1;
  t.spent <- t.spent +. (t1 -. t0);
  t.last <- t1

(* Forks the kernel's process, which must happen before the program starts
   a domain. *)
let start () =
  let cmd_r, cmd_w = Unix.pipe ~cloexec:true () in
  let ans_r, ans_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    (* Leave without at_exit handlers: they would flush output buffers
       copied from the parent. *)
    Unix.close cmd_w;
    Unix.close ans_r;
    (try serve_kernel cmd_r ans_w; Unix._exit 0 with _ -> Unix._exit 2)
  | pid ->
    Unix.close cmd_r;
    Unix.close ans_w;
    { pid; cmd = cmd_w; answer = Unix.in_channel_of_descr ans_r; times = []; count = 0;
      last = 0.0; spent = 0.0 }

(* Forget the measures of an earlier run and take the first of this one. *)
let restart t =
  t.times <- [];
  t.count <- 0;
  t.spent <- 0.0;
  measure t

let stop t =
  Unix.close t.cmd;
  close_in_noerr t.answer;
  ignore (Unix.waitpid [] t.pid)

let with_pace f =
  let t = start () in
  Fun.protect ~finally:(fun () -> stop t) (fun () -> f t)

(* Time the kernel if [interval] has passed since it last ran. *)
let tick t = if Meter.now () -. t.last >= interval then measure t

(* The epoch of a sample taken now: it lies between measures [epoch - 1]
   and [epoch] of the run. *)
let epoch t = t.count

(* After the run's last measure: for each epoch, the factor that brings a
   time of that epoch to the reference pace (below 1 when the host ran
   slower than it). *)
let factors t =
  let a = Array.of_list (List.rev t.times) and n = t.count in
  Array.init (n + 1) (fun e ->
    let k = if e = 0 then a.(0) else if e = n then a.(n - 1) else (a.(e - 1) +. a.(e)) /. 2.0 in
    (reference_s /. k) ** exponent)

let note t =
  Printf.sprintf "host pace: kernel median %.4f s over %d measures (%.1f s waited), \
                  reference %.4f s; kernel times: %s"
    (Meter.median t.times) t.count t.spent reference_s
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") t.times))
