type decision = Allowed | Denied

type event = {
  seq : int;
  time : float;
  mono : float;
  user : string;
  action : string;
  privilege : string;
  target : string;
  decision : decision;
  rule : string;
  detail : string;
}

type t = event Ring.t

let create ?(capacity = 1024) () = Ring.create capacity

let default = create ()

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

let set_capacity = Ring.set_capacity
let capacity = Ring.capacity
let set_sink = Ring.set_sink
let set_tap = Ring.set_tap

let record t ~user ~action ?(privilege = "") ?(target = "") ?(rule = "")
    ?(detail = "") decision =
  (* Wall time is display-only; ordering and intervals come from the
     monotonic clock, which an NTP step cannot reorder. *)
  let time = Unix.gettimeofday () and mono = Mono.now () in
  ignore
    (Ring.push t (fun seq ->
         { seq; time; mono; user; action; privilege; target; decision; rule;
           detail }));
  if Timeseries.enabled () then
    Timeseries.bump Timeseries.default ~now:mono
      (match decision with
       | Allowed -> "audit_allow"
       | Denied -> "audit_deny")

let events = Ring.to_list
let length = Ring.length
let seen = Ring.seen
let dropped = Ring.dropped
let clear = Ring.clear

let decision_to_string = function Allowed -> "allow" | Denied -> "deny"

let event_to_string e =
  Printf.sprintf "#%-4d %-10s %-18s %-8s %-10s %-5s %s%s" e.seq e.user
    e.action
    (if e.privilege = "" then "-" else e.privilege)
    (if e.target = "" then "-" else e.target)
    (decision_to_string e.decision)
    (if e.rule = "" then "-" else e.rule)
    (if e.detail = "" then "" else " (" ^ e.detail ^ ")")

let event_to_json e =
  Printf.sprintf
    "{\"seq\":%d,\"time\":%.6f,\"user\":%s,\"action\":%s,\"privilege\":%s,\"target\":%s,\
     \"decision\":%s,\"rule\":%s,\"detail\":%s}"
    e.seq e.time
    (Metrics.json_string e.user)
    (Metrics.json_string e.action)
    (Metrics.json_string e.privilege)
    (Metrics.json_string e.target)
    (Metrics.json_string (decision_to_string e.decision))
    (Metrics.json_string e.rule)
    (Metrics.json_string e.detail)

let to_json t =
  "[" ^ String.concat "," (List.map event_to_json (events t)) ^ "]"
