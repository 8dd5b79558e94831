(* Query-plan explainability and the slow-query log.  Each served query
   records a structured plan — which read path answered it (compiled
   rewrite vs lazy-view fallback) and, for a rewrite, whether it scanned
   the snapshot or ran anchored on the label index (and on which
   labels), how many determinised automaton
   product states the traversal needed, how many nodes it visited and
   how many it pruned by ordpath contiguity, the deciding-rule set for
   the answers, the permission class, and the latency measured on the
   monotonic clock — into a bounded mutex-guarded ring.  Plans slower
   than the configurable threshold are additionally retained in a
   dedicated slow ring, so a burst of fast queries cannot evict the
   evidence of a slow one. *)

type plan = {
  seq : int;
  time : float;  (* wall clock, display only *)
  mono : float;  (* monotonic stamp: ordering and intervals *)
  user : string;
  query : string;
  compiled : bool;  (* true = rewrite product path, false = fallback *)
  anchors : string list;  (* labels an anchored rewrite read; [] = scan *)
  states : int;  (* distinct determinised automaton state sets *)
  visited : int;  (* nodes the traversal consumed *)
  pruned : int;  (* nodes skipped wholesale by ordpath contiguity *)
  answers : int;
  rules : string list;  (* deciding rules over the answer set *)
  cls : string;  (* Perm.profile class id *)
  seconds : float;  (* monotonic latency *)
}

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* Plans at or above the threshold also land in the slow ring.  The
   default is deliberately low — explainability beats losing evidence —
   and [xmlsecu slow] / bench harnesses override it. *)
let default_threshold = 0.010
let threshold_cell = Atomic.make default_threshold
let set_threshold s = Atomic.set threshold_cell s
let threshold () = Atomic.get threshold_cell

let default_capacity = 256

let lock = Mutex.create ()
let recent_ring : plan Queue.t = Queue.create ()
let slow_ring : plan Queue.t = Queue.create ()
let capacity = ref default_capacity
let seen_count = ref 0

let set_capacity n =
  if n <= 0 then invalid_arg "Obs.Planlog.set_capacity";
  Mutex.lock lock;
  capacity := n;
  let trim q =
    while Queue.length q > n do
      ignore (Queue.pop q)
    done
  in
  trim recent_ring;
  trim slow_ring;
  Mutex.unlock lock

let record ~user ~query ~compiled ~anchors ~states ~visited ~pruned
    ~answers ~rules ~cls ~seconds =
  let time = Unix.gettimeofday () and mono = Mono.now () in
  Mutex.lock lock;
  let p =
    { seq = !seen_count; time; mono; user; query; compiled; anchors; states;
      visited; pruned; answers; rules; cls; seconds }
  in
  incr seen_count;
  let push q =
    Queue.push p q;
    if Queue.length q > !capacity then ignore (Queue.pop q)
  in
  push recent_ring;
  if seconds >= Atomic.get threshold_cell then push slow_ring;
  Mutex.unlock lock;
  p

let snapshot q =
  Mutex.lock lock;
  let l = List.of_seq (Queue.to_seq q) in
  Mutex.unlock lock;
  l

let recent () = snapshot recent_ring
let slow () = snapshot slow_ring

let seen () =
  Mutex.lock lock;
  let n = !seen_count in
  Mutex.unlock lock;
  n

let clear () =
  Mutex.lock lock;
  Queue.clear recent_ring;
  Queue.clear slow_ring;
  seen_count := 0;
  Mutex.unlock lock

let plan_name p =
  if not p.compiled then "fallback"
  else if p.anchors = [] then "scan"
  else "anchored"

let plan_to_json p =
  Printf.sprintf
    "{\"seq\":%d,\"time\":%.6f,\"user\":%s,\"query\":%s,\"path\":%s,\
     \"plan\":%s,\"anchors\":[%s],\
     \"states\":%d,\"visited\":%d,\"pruned\":%d,\"answers\":%d,\
     \"rules\":[%s],\"class\":%s,\"seconds\":%.9f}"
    p.seq p.time
    (Metrics.json_string p.user)
    (Metrics.json_string p.query)
    (Metrics.json_string (if p.compiled then "rewrite" else "fallback"))
    (Metrics.json_string (plan_name p))
    (String.concat "," (List.map Metrics.json_string p.anchors))
    p.states p.visited p.pruned p.answers
    (String.concat "," (List.map Metrics.json_string p.rules))
    (Metrics.json_string p.cls)
    p.seconds

let plan_to_string p =
  Printf.sprintf
    "#%-4d %-10s %-40s %s path%s, %d state set(s), %d visited / %d pruned, \
     %d answer(s), %.3f ms%s\n%s"
    p.seq p.user p.query
    (if p.compiled then "rewrite" else "fallback")
    (match (p.compiled, p.anchors) with
     | false, _ -> ""
     | true, [] -> " (scan)"
     | true, anchors -> " (anchored on " ^ String.concat ", " anchors ^ ")")
    p.states p.visited p.pruned p.answers (1000. *. p.seconds)
    (if p.cls = "" then "" else Printf.sprintf " [class %s]" p.cls)
    (match p.rules with
     | [] -> "      deciding rules: (none)\n"
     | rules ->
       "      deciding rules: " ^ String.concat "; " rules ^ "\n")

let to_json plans =
  "[" ^ String.concat "," (List.map plan_to_json plans) ^ "]"

let recent_json () = to_json (recent ())
let slow_json () = to_json (slow ())
