"""Command dispatch: the TPM's top half.

Parses framed commands, routes them to handlers registered by the modules
in :mod:`repro.tpm.commands`, runs the 1H1 authorization protocol, and
frames responses.  Errors surface exactly as a hardware part would surface
them: a response frame carrying the TPM result code, never a Python
exception across the wire boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.obs.trace import traced
from repro.sim.timing import charge
from repro.tpm import marshal
from repro.tpm.constants import (
    TPM_BAD_ORDINAL,
    TPM_AUTHFAIL,
    TPM_FAIL,
    TPM_INVALID_POSTINIT,
    TPM_ORD_Startup,
    TPM_SUCCESS,
    ordinal_name,
)
from repro.tpm.marshal import AuthTrailer, ParsedCommand
from repro.tpm.sessions import AuthSession, compute_auth
from repro.tpm.state import TpmState
from repro.util.bytesio import ByteReader
from repro.util.errors import MarshalError, TpmError

Handler = Callable[["CommandContext"], bytes]

#: the frame parser of the whole command path: the access-control monitor
#: and the executor both parse through it, under one ``parse`` span
parse_command = traced("parse")(marshal.parse_command)

_HANDLERS: Dict[int, Handler] = {}


def handler(ordinal: int) -> Callable[[Handler], Handler]:
    """Register a command handler for an ordinal (module-import time)."""

    def register(fn: Handler) -> Handler:
        if ordinal in _HANDLERS:
            raise ValueError(f"duplicate handler for {ordinal_name(ordinal)}")
        _HANDLERS[ordinal] = fn
        return fn

    return register


@dataclass(slots=True)
class CommandContext:
    """Everything a command handler needs."""

    state: TpmState
    ordinal: int
    reader: ByteReader
    auth: Optional[AuthTrailer]
    locality: int = 0
    # Filled in by verify_auth(); used to build the response trailer.
    _session: Optional[AuthSession] = None
    _hmac_key: bytes = b""
    _new_nonce_even: Optional[bytes] = None
    _continue: bool = False
    _param_digest: bytes = b""

    def require_auth(self) -> AuthTrailer:
        """Handlers call this for ordinals that demand an AUTH1 trailer."""
        if self.auth is None:
            raise TpmError(TPM_AUTHFAIL, f"{ordinal_name(self.ordinal)} requires auth")
        return self.auth

    def verify_auth(self, entity_secret: bytes) -> AuthSession:
        """Run the 1H1 verification against ``entity_secret``.

        Must be called exactly once by authorized handlers, *after* the
        handler has located the entity (so it knows which secret applies)
        but *before* mutating state.
        """
        trailer = self.require_auth()
        session = self.state.sessions.get(trailer.handle)
        self._hmac_key = session.hmac_key(entity_secret)
        self._new_nonce_even = self.state.sessions.verify_and_roll(
            session=session,
            entity_secret=entity_secret,
            param_digest=self._param_digest,
            nonce_odd=trailer.nonce_odd,
            continue_session=trailer.continue_session,
            presented_auth=trailer.auth_value,
        )
        self._session = session
        self._continue = trailer.continue_session
        return session


class TpmExecutor:
    """Executes framed TPM commands against a :class:`TpmState`."""

    def __init__(self, state: TpmState) -> None:
        self.state = state
        self.commands_executed = 0
        self.failures = 0

    def execute(
        self,
        wire: bytes,
        locality: int = 0,
        parsed: Optional[ParsedCommand] = None,
    ) -> bytes:
        """One command in, one response out.  Never raises for TPM errors.

        When a layer above already parsed the frame (the access-control
        monitor does, to classify the ordinal), it hands the result down via
        ``parsed`` and the frame is not re-parsed here.
        """
        charge("tpm.cmd.base")
        if parsed is None:
            try:
                parsed = parse_command(wire)
            except (MarshalError, TpmError) as exc:
                self.failures += 1
                code = exc.code if isinstance(exc, TpmError) else TPM_FAIL
                return marshal.build_response(code)
        self.commands_executed += 1
        return self._run(parsed, locality)

    @traced("tpm.execute", lambda self, parsed, locality: {
        "ordinal": ordinal_name(parsed.ordinal)})
    def _run(self, parsed: ParsedCommand, locality: int) -> bytes:
        fn = _HANDLERS.get(parsed.ordinal)
        if fn is None:
            self.failures += 1
            return marshal.build_response(TPM_BAD_ORDINAL)
        if not self.state.flags.started and parsed.ordinal != TPM_ORD_Startup:
            self.failures += 1
            return marshal.build_response(TPM_INVALID_POSTINIT)
        # The 1H1 param digest is consumed only by verify_auth(), which is
        # unreachable without an auth trailer — so unauthorized commands
        # (the fast-path bulk) skip the hash entirely.  The digest helper
        # charges nothing, so skipping it is virtual-time-neutral.
        ctx = CommandContext(
            state=self.state,
            ordinal=parsed.ordinal,
            reader=ByteReader(parsed.params),
            auth=parsed.auth,
            locality=locality,
            _param_digest=(
                marshal.command_param_digest(parsed.ordinal, parsed.params)
                if parsed.auth is not None else b""
            ),
        )
        try:
            out_params = fn(ctx)
        except TpmError as exc:
            self.failures += 1
            return marshal.build_response(exc.code)
        except MarshalError:
            self.failures += 1
            from repro.tpm.constants import TPM_BAD_PARAMETER

            return marshal.build_response(TPM_BAD_PARAMETER)
        if ctx._session is not None and ctx._new_nonce_even is not None:
            out_digest = marshal.response_param_digest(
                TPM_SUCCESS, parsed.ordinal, out_params
            )
            response_auth = compute_auth(
                ctx._hmac_key,
                out_digest,
                ctx._new_nonce_even,
                parsed.auth.nonce_odd,
                ctx._continue,
            )
            return marshal.build_response(
                TPM_SUCCESS,
                out_params,
                nonce_even=ctx._new_nonce_even,
                continue_session=ctx._continue,
                response_auth=response_auth,
            )
        return marshal.build_response(TPM_SUCCESS, out_params)


def registered_ordinals() -> frozenset[int]:
    """All ordinals with handlers (import side effect of the commands pkg)."""
    return frozenset(_HANDLERS)


# Importing the command modules registers every handler.  Done at the bottom
# so the decorator and context classes above already exist.
from repro.tpm.commands import (  # noqa: E402  (import-time registration)
    admin,
    counter_cmds,
    maintenance,
    nv_cmds,
    ownership,
    pcr_cmds,
    signing,
    storage,
)

__all__ = [
    "CommandContext",
    "TpmExecutor",
    "handler",
    "registered_ordinals",
]
