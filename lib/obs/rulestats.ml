(* Per-rule decision telemetry: how often each security rule's path
   matched a node, and how often the rule actually decided that node
   under axiom 14's most-recent-wins resolution.  A rule that keeps
   matching but never decides is runtime-shadowed — dead weight a policy
   author should see (the empirical counterpart of the static
   shadowed-rule analyses the ROADMAP's `xmlsecu lint` direction cites).

   Rules are keyed by priority: the paper makes priorities unique within
   a policy (they are administration timestamps), so the key identifies
   the rule exactly.  Counters are atomic — conflict resolution runs on
   Core.Pool worker domains during login fan-outs — and bumping is
   guarded by a global enabled flag so a disabled registry costs the
   call sites one boolean load. *)

type entry = {
  key : int;  (* rule priority — unique within a policy *)
  privilege : string;
  desc : string;
  matched : int Atomic.t;
  decided : int Atomic.t;
}

type class_info = {
  profile : string;
  keys : int list;
  members : int Atomic.t;
}

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* Registration and reporting are rare and mutex-guarded; the per-node
   hot path only touches the entries' atomic counters. *)
let lock = Mutex.create ()
let rules : (int, entry) Hashtbl.t = Hashtbl.create 64
let classes : (string, class_info) Hashtbl.t = Hashtbl.create 16

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let register ~key ~privilege ~desc =
  locked (fun () ->
      match Hashtbl.find_opt rules key with
      | Some e -> e
      | None ->
        let e =
          { key; privilege; desc;
            matched = Atomic.make 0; decided = Atomic.make 0 }
        in
        Hashtbl.add rules key e;
        e)

let add_matched e n = if n > 0 then ignore (Atomic.fetch_and_add e.matched n)
let add_decided e n = if n > 0 then ignore (Atomic.fetch_and_add e.decided n)

let note_class ~profile ~keys =
  locked (fun () ->
      match Hashtbl.find_opt classes profile with
      | Some _ -> ()
      | None ->
        Hashtbl.add classes profile
          { profile; keys; members = Atomic.make 0 })

let note_member ~profile =
  match locked (fun () -> Hashtbl.find_opt classes profile) with
  | Some c -> Atomic.incr c.members
  | None -> ()

(* A retracted rule must stop being reported: its counters would
   otherwise read as "shadowed forever" (zero further decisions) even
   though the rule no longer exists.  Classes keyed on the old profile
   drop the timestamp too; the re-keyed classes register fresh. *)
let retire ~key =
  locked (fun () ->
      Hashtbl.remove rules key;
      let updated =
        Hashtbl.fold
          (fun profile c acc ->
            if List.mem key c.keys then
              (profile, { c with keys = List.filter (fun k -> k <> key) c.keys })
              :: acc
            else acc)
          classes []
      in
      List.iter (fun (profile, c) -> Hashtbl.replace classes profile c) updated)

type report = {
  r_key : int;
  r_privilege : string;
  r_desc : string;
  r_matched : int;
  r_decided : int;
  r_overridden : int;
      (* matched - decided: nodes where the rule's path applied but a
         more recent rule of the same privilege won *)
}

let report_of e =
  let m = Atomic.get e.matched and d = Atomic.get e.decided in
  { r_key = e.key; r_privilege = e.privilege; r_desc = e.desc;
    r_matched = m; r_decided = d; r_overridden = max 0 (m - d) }

let reports () =
  let l = locked (fun () -> Hashtbl.fold (fun _ e acc -> e :: acc) rules []) in
  List.sort (fun a b -> compare a.r_key b.r_key) (List.map report_of l)

let shadowed () = List.filter (fun r -> r.r_decided = 0) (reports ())

type class_report = {
  c_profile : string;
  c_keys : int list;
  c_members : int;
}

let class_reports () =
  let l =
    locked (fun () -> Hashtbl.fold (fun _ c acc -> c :: acc) classes [])
  in
  List.sort
    (fun a b -> compare a.c_profile b.c_profile)
    (List.map
       (fun c ->
         { c_profile = c.profile; c_keys = c.keys;
           c_members = Atomic.get c.members })
       l)

let clear () =
  locked (fun () ->
      Hashtbl.reset rules;
      Hashtbl.reset classes)

let report_to_json r =
  Printf.sprintf
    "{\"priority\":%d,\"privilege\":%s,\"rule\":%s,\"matched\":%d,\
     \"decided\":%d,\"overridden\":%d,\"shadowed\":%b}"
    r.r_key
    (Metrics.json_string r.r_privilege)
    (Metrics.json_string r.r_desc)
    r.r_matched r.r_decided r.r_overridden (r.r_decided = 0)

let class_to_json c =
  Printf.sprintf "{\"profile\":%s,\"rules\":[%s],\"members\":%d}"
    (Metrics.json_string c.c_profile)
    (String.concat "," (List.map string_of_int c.c_keys))
    c.c_members

let to_json () =
  Printf.sprintf "{\"rules\":[%s],\"classes\":[%s]}"
    (String.concat "," (List.map report_to_json (reports ())))
    (String.concat "," (List.map class_to_json (class_reports ())))

let report_to_string r =
  Printf.sprintf "%-9s prio %-4d matched %-8d decided %-8d overridden %-8d %s%s"
    r.r_privilege r.r_key r.r_matched r.r_decided r.r_overridden r.r_desc
    (if r.r_decided = 0 then "  [SHADOWED: zero decisions]" else "")

let to_string () =
  let b = Buffer.create 512 in
  List.iter
    (fun r ->
      Buffer.add_string b (report_to_string r);
      Buffer.add_char b '\n')
    (reports ());
  (match class_reports () with
   | [] -> ()
   | cs ->
     Buffer.add_string b "-- permission classes --\n";
     List.iter
       (fun c ->
         Buffer.add_string b
           (Printf.sprintf "%-32s %d member(s), rules [%s]\n"
              (if c.c_profile = "" then "(empty profile)" else c.c_profile)
              c.c_members
              (String.concat "; " (List.map string_of_int c.c_keys))))
       cs);
  Buffer.contents b
