(* Fixed-window time-series ring: named per-window counters plus latency
   quantile sketches, rotated in O(1) as the (injected) clock crosses a
   window boundary.  Windows are *logical*: a window's identity is
   [floor (now / window)], so feeding the same monotonic stamps always
   lands events in the same windows — the determinism the anomaly
   detectors and their property tests build on.  Wall-clock never drives
   rotation; reading the series ([windows], [to_json]) observes, it
   never advances. *)

(* Sketches bucket on the Metrics histograms' log2 ladder: a sketch is a
   fixed histogram, so merging two windows is an element-wise add and a
   quantile is a cumulative walk — no stored samples, O(1) memory per
   (window, series). *)
let n_buckets = Array.length Metrics.bucket_bounds + 1 (* + overflow *)

type sketch = {
  mutable s_count : int;
  mutable s_sum : float;
  s_buckets : int array; (* per-bucket (not cumulative), overflow last *)
}

type sketch_view = { count : int; sum : float; buckets : int array }

type window_view = {
  index : int; (* logical index: window covers [index*w, (index+1)*w) *)
  counters : (string * int) list; (* sorted by name *)
  sketches : (string * sketch_view) list; (* sorted by name *)
}

type slot = {
  mutable w : int; (* logical window index; [empty_w] = unused slot *)
  s_counters : (string, int ref) Hashtbl.t;
  s_sketches : (string, sketch) Hashtbl.t;
}

let empty_w = min_int

type t = {
  lock : Mutex.t;
      (* bumps come from every domain that records an audit event or
         emits a transaction event *)
  t_window : float;
  slots : slot array;
  mutable head : int; (* slot holding the newest window *)
  mutable t_rotations : int;
  mutable t_late_drops : int;
      (* events older than the ring's reach; counted, never folded in *)
}

let default_window = 10.
let default_slots = 60

let create ?(window = default_window) ?(slots = default_slots) () =
  if window <= 0. then invalid_arg "Obs.Timeseries.create: window <= 0";
  if slots < 2 then invalid_arg "Obs.Timeseries.create: slots < 2";
  {
    lock = Mutex.create ();
    t_window = window;
    slots =
      Array.init slots (fun _ ->
          {
            w = empty_w;
            s_counters = Hashtbl.create 8;
            s_sketches = Hashtbl.create 4;
          });
    head = 0;
    t_rotations = 0;
    t_late_drops = 0;
  }

let default = create ()

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

let window t = t.t_window
let index_of t now = int_of_float (Float.floor (now /. t.t_window))

let reset_slot slot w =
  slot.w <- w;
  Hashtbl.reset slot.s_counters;
  Hashtbl.reset slot.s_sketches

(* The slot for logical window [idx], rotating the ring forward as
   needed.  Skipped windows (a gap with no events) are materialised as
   zero windows so the series shows the gap; a gap wider than the ring
   clears it wholesale — still O(slots), never O(gap).  Events that fall
   behind the ring's reach are dropped (counted in [late_drops]); events
   within reach land in their own (possibly past) window. *)
let slot_for t idx =
  let n = Array.length t.slots in
  let cur = t.slots.(t.head).w in
  if cur = empty_w then begin
    reset_slot t.slots.(t.head) idx;
    Some t.slots.(t.head)
  end
  else if idx = cur then Some t.slots.(t.head)
  else if idx > cur then begin
    let steps = idx - cur in
    if steps >= n then begin
      Array.iter (fun s -> reset_slot s empty_w) t.slots;
      t.head <- 0;
      reset_slot t.slots.(0) idx
    end
    else
      for k = 1 to steps do
        t.head <- (t.head + 1) mod n;
        reset_slot t.slots.(t.head) (cur + k)
      done;
    t.t_rotations <- t.t_rotations + min steps n;
    Some t.slots.(t.head)
  end
  else begin
    let back = cur - idx in
    if back < n then begin
      let pos = (((t.head - back) mod n) + n) mod n in
      let s = t.slots.(pos) in
      if s.w = idx then Some s
      else if s.w = empty_w then begin
        (* hole left by a wholesale clear: position is still correct *)
        reset_slot s idx;
        Some s
      end
      else begin
        t.t_late_drops <- t.t_late_drops + 1;
        None
      end
    end
    else begin
      t.t_late_drops <- t.t_late_drops + 1;
      None
    end
  end

let bump t ?now ?(n = 1) series =
  let now = match now with Some x -> x | None -> Mono.now () in
  Mutex.lock t.lock;
  (match slot_for t (index_of t now) with
   | None -> ()
   | Some slot -> (
     match Hashtbl.find_opt slot.s_counters series with
     | Some r -> r := !r + n
     | None -> Hashtbl.replace slot.s_counters series (ref n)));
  Mutex.unlock t.lock

let observe t ?now series v =
  let now = match now with Some x -> x | None -> Mono.now () in
  Mutex.lock t.lock;
  (match slot_for t (index_of t now) with
   | None -> ()
   | Some slot ->
     let sk =
       match Hashtbl.find_opt slot.s_sketches series with
       | Some sk -> sk
       | None ->
         let sk =
           { s_count = 0; s_sum = 0.; s_buckets = Array.make n_buckets 0 }
         in
         Hashtbl.replace slot.s_sketches series sk;
         sk
     in
     sk.s_count <- sk.s_count + 1;
     sk.s_sum <- sk.s_sum +. v;
     let b = Metrics.bucket_index v in
     sk.s_buckets.(b) <- sk.s_buckets.(b) + 1);
  Mutex.unlock t.lock

let rotations t = t.t_rotations
let late_drops t = t.t_late_drops

let clear t =
  Mutex.lock t.lock;
  Array.iter (fun s -> reset_slot s empty_w) t.slots;
  t.head <- 0;
  t.t_rotations <- 0;
  t.t_late_drops <- 0;
  Mutex.unlock t.lock

(* --- views ------------------------------------------------------------ *)

let view_of_sketch sk =
  { count = sk.s_count; sum = sk.s_sum; buckets = Array.copy sk.s_buckets }

let sorted_bindings tbl f =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl [])

let windows t =
  Mutex.lock t.lock;
  let n = Array.length t.slots in
  let acc = ref [] in
  (* newest first from head going back, then reverse: oldest first *)
  for k = 0 to n - 1 do
    let s = t.slots.((((t.head - k) mod n) + n) mod n) in
    if s.w <> empty_w then
      acc :=
        {
          index = s.w;
          counters = sorted_bindings s.s_counters (fun r -> !r);
          sketches = sorted_bindings s.s_sketches view_of_sketch;
        }
        :: !acc
  done;
  Mutex.unlock t.lock;
  !acc

let current t =
  Mutex.lock t.lock;
  let w = t.slots.(t.head).w in
  Mutex.unlock t.lock;
  if w = empty_w then None else Some w

let empty_sketch_view = { count = 0; sum = 0.; buckets = Array.make n_buckets 0 }

let merge views =
  match views with
  | [] -> empty_sketch_view
  | _ ->
    let buckets = Array.make n_buckets 0 in
    let count = ref 0 and sum = ref 0. in
    List.iter
      (fun v ->
        count := !count + v.count;
        sum := !sum +. v.sum;
        Array.iteri (fun i x -> buckets.(i) <- buckets.(i) + x) v.buckets)
      views;
    { count = !count; sum = !sum; buckets }

(* Upper bound of the bucket holding the q-th sample; the overflow
   bucket reports twice the last bound (there is no finite upper edge to
   quote).  0 on an empty sketch. *)
let quantile v q =
  if v.count = 0 then 0.
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = Stdlib.max 1 (int_of_float (Float.ceil (q *. Float.of_int v.count))) in
    let cum = ref 0 and i = ref 0 and res = ref Float.nan in
    while Float.is_nan !res && !i < n_buckets do
      cum := !cum + v.buckets.(!i);
      if !cum >= target then
        res :=
          (if !i < n_buckets - 1 then Metrics.bucket_bounds.(!i)
           else 2. *. Metrics.bucket_bounds.(n_buckets - 2));
      incr i
    done;
    if Float.is_nan !res then 0. else !res
  end

let sketch_json name v =
  Printf.sprintf
    "%s:{\"count\":%d,\"sum\":%.9f,\"p50\":%.9f,\"p90\":%.9f,\"p99\":%.9f}"
    (Metrics.json_string name) v.count v.sum (quantile v 0.5) (quantile v 0.9)
    (quantile v 0.99)

let window_json t wv =
  let counters =
    String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf "%s:%d" (Metrics.json_string k) v)
         wv.counters)
  in
  let sketches =
    String.concat "," (List.map (fun (k, v) -> sketch_json k v) wv.sketches)
  in
  Printf.sprintf
    "{\"index\":%d,\"start\":%.3f,\"counters\":{%s},\"sketches\":{%s}}"
    wv.index
    (Float.of_int wv.index *. t.t_window)
    counters sketches

let to_json t =
  let ws = windows t in
  Printf.sprintf
    "{\"window_seconds\":%g,\"slots\":%d,\"rotations\":%d,\"late_drops\":%d,\
     \"windows\":[%s]}"
    t.t_window (Array.length t.slots) t.t_rotations t.t_late_drops
    (String.concat "," (List.map (window_json t) ws))
