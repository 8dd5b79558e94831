(** Security rules (§4.3): [rule(accept|deny, r, p, s, t)].  The priority
    [t] is the timestamp at which the administrator issued the rule; the
    most recent applicable rule wins (axiom 14). *)

type decision = Accept | Deny

type t = private {
  decision : decision;
  privilege : Privilege.t;
  path : Xpath.Ast.expr;
  path_src : string;  (** concrete syntax, kept for printing/encoding *)
  subject : string;
  priority : int;
  notation : string;
      (** paper notation, [rule(accept, read, //*, staff, 10)], rendered
          once by {!v} for every log, report and explanation *)
}

val v :
  decision -> Privilege.t -> path:string -> subject:string -> priority:int -> t
(** @raise Xpath.Parser.Error on a bad path. *)

val accept :
  Privilege.t -> path:string -> subject:string -> priority:int -> t

val deny : Privilege.t -> path:string -> subject:string -> priority:int -> t

val decision_to_string : decision -> string
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
(** Prints [notation]. *)

val uses_user_variable : t -> bool
(** Does the path mention [$USER] (rule 5 of axiom 13)?  Such rules must
    be re-evaluated per session. *)
