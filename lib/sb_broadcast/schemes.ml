let all = [ Send_echo.scheme; Dolev_strong.scheme; Eig.scheme; Bracha.scheme; Phase_king.scheme ]
